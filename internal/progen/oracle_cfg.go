package progen

import (
	"fmt"

	"repro/internal/cdg"
	"repro/internal/dom"
	"repro/internal/loops"
)

// naiveCrossCheckLimit caps the node count for the O(n³)-ish brute-force
// references; larger graphs still get the fast-vs-fast cross-checks.
const naiveCrossCheckLimit = 40

// CheckDominators cross-checks the iterative (Cooper-Harvey-Kennedy) and
// Lengauer-Tarjan dominator implementations against each other and, for
// small graphs, against the naive set-dataflow reference — on both the
// forward graph (dominators) and the reversed graph rooted at the exit
// (postdominators, the relation the paper is built on).
func CheckDominators(c *CFG) error {
	if err := checkDomPair(c.Succs, c.Entry, "dom"); err != nil {
		return err
	}
	return checkDomPair(dom.Reverse(c.Succs), c.Exit, "pdom")
}

func checkDomPair(succs [][]int, root int, what string) error {
	it := dom.Compute(succs, root)
	lt := dom.ComputeLT(succs, root)
	for v := range succs {
		if it.IDom[v] != lt.IDom[v] {
			return fmt.Errorf("%s: IDom[%d] diverges: iterative=%d lengauer-tarjan=%d",
				what, v, it.IDom[v], lt.IDom[v])
		}
		if it.Depth[v] != lt.Depth[v] {
			return fmt.Errorf("%s: Depth[%d] diverges: iterative=%d lengauer-tarjan=%d",
				what, v, it.Depth[v], lt.Depth[v])
		}
	}
	if len(succs) > naiveCrossCheckLimit {
		return nil
	}
	naive := dom.NaiveDominators(succs, root)
	for v := range succs {
		for u := range succs {
			want := naive[v][u]
			if got := it.Dominates(u, v); got != want {
				return fmt.Errorf("%s: Dominates(%d,%d)=%v, naive dataflow says %v",
					what, u, v, got, want)
			}
		}
	}
	return nil
}

// CheckCDG cross-checks the Ferrante-Ottenstein-Warren CDG construction
// (which walks the postdominator tree) against a brute-force
// path-enumeration reference that never builds a tree: X postdominates B
// iff removing X disconnects B from the exit, checked by explicit DFS.
func CheckCDG(c *CFG) error {
	if len(c.Succs) > naiveCrossCheckLimit {
		return nil
	}
	pdom := dom.Compute(dom.Reverse(c.Succs), c.Exit)
	g := cdg.Build(c.Succs, pdom)

	ref := refControlDeps(c.Succs, c.Exit)
	got := map[[2]int]bool{}
	for a, xs := range g.Controls {
		seen := map[int]bool{}
		for _, x := range xs {
			if seen[x] {
				return fmt.Errorf("cdg: Controls[%d] lists %d twice", a, x)
			}
			seen[x] = true
			got[[2]int{a, x}] = true
		}
	}
	for k := range ref {
		if !got[k] {
			return fmt.Errorf("cdg: missing control dependence: %d controls %d (path enumeration finds it)", k[0], k[1])
		}
	}
	for k := range got {
		if !ref[k] {
			return fmt.Errorf("cdg: spurious control dependence: %d controls %d (path enumeration refutes it)", k[0], k[1])
		}
	}
	// DependsOn must be the exact transpose of Controls.
	back := map[[2]int]bool{}
	for x, as := range g.DependsOn {
		for _, a := range as {
			back[[2]int{a, x}] = true
		}
	}
	for k := range got {
		if !back[k] {
			return fmt.Errorf("cdg: edge %v in Controls but not DependsOn", k)
		}
	}
	for k := range back {
		if !got[k] {
			return fmt.Errorf("cdg: edge %v in DependsOn but not Controls", k)
		}
	}
	return nil
}

// refControlDeps enumerates control dependences from first principles:
// for every CFG edge A→B and node X, X is control dependent on A via B
// when every path from B to the exit passes through X, but some path from
// A avoids X (i.e. X does not strictly postdominate A).
func refControlDeps(succs [][]int, exit int) map[[2]int]bool {
	n := len(succs)
	reachesExit := make([]bool, n)
	for v := 0; v < n; v++ {
		reachesExit[v] = reachesAvoiding(succs, v, exit, -1)
	}
	// postdominates(x, v): v reaches exit only through x.
	postdominates := func(x, v int) bool {
		if v == x {
			return true
		}
		return !reachesAvoiding(succs, v, exit, x)
	}
	out := map[[2]int]bool{}
	for a := 0; a < n; a++ {
		if !reachesExit[a] {
			continue
		}
		for _, b := range succs[a] {
			if !reachesExit[b] {
				continue
			}
			for x := 0; x < n; x++ {
				if !reachesExit[x] {
					continue
				}
				if postdominates(x, b) && !(x != a && postdominates(x, a)) {
					out[[2]int{a, x}] = true
				}
			}
		}
	}
	return out
}

// reachesAvoiding reports whether `to` is reachable from `from` without
// visiting `avoid` (pass avoid=-1 for plain reachability). from==avoid
// means no path exists; from==to (≠avoid) is trivially reachable.
func reachesAvoiding(succs [][]int, from, to, avoid int) bool {
	if from == avoid || to == avoid {
		return false
	}
	if from == to {
		return true
	}
	seen := make([]bool, len(succs))
	seen[from] = true
	stack := []int{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range succs[v] {
			if w == to {
				return true
			}
			if w != avoid && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// VerifyLoops checks the structural invariants of loops.Find on the graph
// rooted at root. It holds on irreducible graphs too: natural-loop
// detection must simply skip back edges whose target does not dominate
// the source.
func VerifyLoops(succs [][]int, root int) error {
	tree := dom.Compute(succs, root)
	f := loops.Find(succs, tree)
	preds := dom.Reverse(succs)

	loopIdx := map[int]int{}
	for i, l := range f.Loops {
		if prev, dup := loopIdx[l.Header]; dup {
			return fmt.Errorf("loops: header %d owns two loops (%d and %d)", l.Header, prev, i)
		}
		loopIdx[l.Header] = i

		if !l.Body[l.Header] {
			return fmt.Errorf("loops: loop %d body excludes its header %d", i, l.Header)
		}
		for _, t := range l.Latches {
			if !l.Body[t] {
				return fmt.Errorf("loops: loop %d latch %d outside body", i, t)
			}
			if !tree.Dominates(l.Header, t) {
				return fmt.Errorf("loops: loop %d latch %d not dominated by header %d (not a natural loop)",
					i, t, l.Header)
			}
			hasEdge := false
			for _, s := range succs[t] {
				if s == l.Header {
					hasEdge = true
				}
			}
			if !hasEdge {
				return fmt.Errorf("loops: loop %d latch %d has no edge to header %d", i, t, l.Header)
			}
			if !f.IsBackEdge(t, l.Header) {
				return fmt.Errorf("loops: IsBackEdge(%d,%d) false for recorded latch", t, l.Header)
			}
		}
		// Body closure: every body node except the header pulls in all its
		// reachable predecessors (that is how natural loop bodies are
		// defined).
		for v := range l.Body {
			if v == l.Header {
				continue
			}
			for _, p := range preds[v] {
				if tree.Reachable(p) && !l.Body[p] {
					return fmt.Errorf("loops: loop %d body not closed: %d in body, pred %d outside", i, v, p)
				}
			}
		}
		// Nesting: the parent must contain this loop's header and be
		// strictly larger.
		if l.Parent >= 0 {
			p := f.Loops[l.Parent]
			if !p.Body[l.Header] || len(p.Body) <= len(l.Body) {
				return fmt.Errorf("loops: loop %d parent %d does not enclose it", i, l.Parent)
			}
			if l.Depth != p.Depth+1 {
				return fmt.Errorf("loops: loop %d depth %d, parent depth %d", i, l.Depth, p.Depth)
			}
		} else if l.Depth != 1 {
			return fmt.Errorf("loops: top-level loop %d has depth %d", i, l.Depth)
		}
	}
	// Every dominator-back-edge must be recorded as a latch, and
	// InnermostOf must name the smallest containing loop.
	for t := range succs {
		if !tree.Reachable(t) {
			continue
		}
		for _, h := range succs[t] {
			if tree.Dominates(h, t) {
				i, ok := loopIdx[h]
				if !ok {
					return fmt.Errorf("loops: back edge %d->%d has no loop", t, h)
				}
				found := false
				for _, lt := range f.Loops[i].Latches {
					if lt == t {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("loops: back edge %d->%d missing from latches", t, h)
				}
			}
		}
	}
	for v := range succs {
		want := -1
		for i, l := range f.Loops {
			if l.Body[v] && (want == -1 || len(l.Body) < len(f.Loops[want].Body)) {
				want = i
			}
		}
		if got := f.InnermostOf[v]; got != want {
			return fmt.Errorf("loops: InnermostOf[%d]=%d, smallest containing loop is %d", v, got, want)
		}
	}
	return nil
}

// CheckCFG runs every graph oracle on one graph.
func CheckCFG(c *CFG) error {
	if err := CheckDominators(c); err != nil {
		return err
	}
	if err := CheckCDG(c); err != nil {
		return err
	}
	return VerifyLoops(c.Succs, c.Entry)
}

// CheckCFGSeed generates the GenCFG graph for seed and runs every graph
// oracle over it. Any failure carries the seed.
func CheckCFGSeed(seed uint64) error {
	return fail("cfg", seed, CheckCFG(GenCFG(seed)))
}
