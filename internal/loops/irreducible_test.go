// Irreducible-graph tests live in an external test package so they can
// drive loops.Find through the progen generators (progen itself imports
// internal/loops, so an internal test package would cycle).
package loops_test

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/loops"
	"repro/internal/progen"
)

func find(succs [][]int) *loops.Forest {
	return loops.Find(succs, dom.Compute(succs, 0))
}

// TestMultiEntryLoopIsNotNatural: the classic irreducible diamond — a
// cycle 1↔2 entered at both 1 and 2 — contains no back edge whose target
// dominates its source, so natural-loop detection must find nothing.
func TestMultiEntryLoopIsNotNatural(t *testing.T) {
	succs := [][]int{
		0: {1, 2},
		1: {2, 3},
		2: {1},
		3: {},
	}
	f := find(succs)
	if len(f.Loops) != 0 {
		t.Fatalf("irreducible cycle reported as %d natural loop(s): %+v", len(f.Loops), f.Loops)
	}
	if f.IsBackEdge(2, 1) || f.IsBackEdge(1, 2) {
		t.Fatalf("cross edges of the irreducible cycle classified as back edges")
	}
}

// TestPartiallyIrreducible: a proper natural loop must still be found when
// an unrelated irreducible cycle exists in the same graph.
func TestPartiallyIrreducible(t *testing.T) {
	succs := [][]int{
		0: {1, 4},
		1: {2},    // natural loop header (dominates its latch 2)
		2: {1, 3}, // latch
		3: {7},
		4: {5, 6}, // entry a of the irreducible cycle 5↔6
		5: {6, 7},
		6: {5},
		7: {},
	}
	f := find(succs)
	if len(f.Loops) != 1 {
		t.Fatalf("want exactly the natural loop at 1, got %d: %+v", len(f.Loops), f.Loops)
	}
	l := f.Loops[0]
	if l.Header != 1 || !l.Body[2] || l.Body[5] || l.Body[6] {
		t.Fatalf("natural loop mis-shaped: %+v", l)
	}
	if l.Depth != 1 || l.Parent != -1 {
		t.Fatalf("top-level loop has depth %d parent %d", l.Depth, l.Parent)
	}
}

// TestSelfLoopForest: a node branching to itself is a one-node natural
// loop that is its own latch.
func TestSelfLoopForest(t *testing.T) {
	succs := [][]int{
		0: {1},
		1: {1, 2},
		2: {},
	}
	f := find(succs)
	if len(f.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(f.Loops))
	}
	l := f.Loops[0]
	if l.Header != 1 || len(l.Latches) != 1 || l.Latches[0] != 1 || len(l.Body) != 1 {
		t.Fatalf("self-loop mis-shaped: %+v", l)
	}
	if f.InnermostOf[1] != 0 || f.InnermostOf[0] != -1 {
		t.Fatalf("InnermostOf wrong: %v", f.InnermostOf)
	}
}

// TestJumpIntoLoopBody: an edge bypassing the header into the body makes
// the header no longer dominate the latch; the loop must be dropped
// entirely rather than reported with a wrong body.
func TestJumpIntoLoopBody(t *testing.T) {
	succs := [][]int{
		0: {1, 2}, // 0→2 jumps straight into the body
		1: {2},    // would-be header
		2: {3},
		3: {1, 4}, // latch edge 3→1
		4: {},
	}
	f := find(succs)
	if len(f.Loops) != 0 {
		t.Fatalf("loop with a bypassed header reported: %+v", f.Loops)
	}
}

// TestForestInvariantsOnGeneratedIrreducibleCFGs runs the full invariant
// battery (latches dominated by headers, closed bodies, consistent
// nesting, exact InnermostOf) over generated noisy and fully random
// graphs, which are irreducible in large numbers.
func TestForestInvariantsOnGeneratedIrreducibleCFGs(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		for _, shape := range []progen.Shape{progen.ShapeNoisy, progen.ShapeRandom} {
			c := progen.GenCFGShaped(seed, shape, 16)
			if err := progen.VerifyLoops(c.Succs, c.Entry); err != nil {
				t.Fatalf("seed %d shape %v: %v\n%s", seed, shape, err, c.Dump())
			}
		}
	}
}
