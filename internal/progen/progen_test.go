package progen

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
)

// TestGeneratorsDeterministic: identical seeds must produce byte-identical
// output — the property cmd/progen's reproduction promise rests on.
func TestGeneratorsDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		if a, b := GenCFG(seed).Dump(), GenCFG(seed).Dump(); a != b {
			t.Fatalf("GenCFG(%d) nondeterministic", seed)
		}
		if a, b := GenAsm(seed), GenAsm(seed); a != b {
			t.Fatalf("GenAsm(%d) nondeterministic", seed)
		}
	}
}

// TestGeneratorsVary: distinct seeds should essentially never collide.
func TestGeneratorsVary(t *testing.T) {
	cfgs := map[string]bool{}
	srcs := map[string]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		cfgs[GenCFG(seed).Dump()] = true
		srcs[GenAsm(seed)] = true
	}
	// Small structured graphs collide occasionally; programs should not.
	if len(cfgs) < 70 || len(srcs) < 95 {
		t.Fatalf("suspiciously many collisions: %d distinct CFGs, %d distinct asm programs of 100",
			len(cfgs), len(srcs))
	}
}

// TestCFGShapes: every requested shape is respected and structured graphs
// keep the exit successor-free.
func TestCFGShapes(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		for _, sh := range []Shape{ShapeStructured, ShapeNoisy, ShapeRandom} {
			c := GenCFGShaped(seed, sh, 12)
			if c.Shape != sh {
				t.Fatalf("seed %d: wanted shape %v, got %v", seed, sh, c.Shape)
			}
			if c.NumNodes() < 2 {
				t.Fatalf("seed %d shape %v: only %d nodes", seed, sh, c.NumNodes())
			}
			if sh != ShapeRandom && len(c.Succs[c.Exit]) != 0 {
				t.Fatalf("seed %d shape %v: exit has successors %v", seed, sh, c.Succs[c.Exit])
			}
		}
	}
}

// TestAsmTerminates: every GenAsm program must assemble and
// halt within the worst-case budget the generator accounts for.
func TestAsmTerminates(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		src := GenAsm(seed)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d does not assemble: %v\n%s", seed, err, src)
		}
		tr, err := emu.Run(p, emu.Config{MaxInstrs: asmMaxInstrs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tr.Len() == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
}

// TestFailureMessageCarriesSeed: every oracle wrapper must embed the seed
// and the reproduction command.
func TestFailureMessageCarriesSeed(t *testing.T) {
	err := fail("cfg", 12345, errors.New("boom"))
	if err == nil {
		t.Fatal("fail() swallowed the error")
	}
	msg := err.Error()
	for _, want := range []string{"seed=12345", "tier=cfg", "go run ./cmd/progen -tier cfg -seed 12345"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message %q missing %q", msg, want)
		}
	}
	var f *Failure
	if !errors.As(err, &f) || f.Seed != 12345 {
		t.Errorf("failure does not unwrap to its seed: %v", err)
	}
}

// TestMinimizeCFGShrinks: the minimizer must reduce an artificial failure
// ("graph contains the edge 2→5") to its essence.
func TestMinimizeCFGShrinks(t *testing.T) {
	c := GenCFGShaped(7, ShapeRandom, 16)
	hasEdge := func(g *CFG) bool {
		if len(g.Succs) <= 5 {
			return false
		}
		for _, w := range g.Succs[2] {
			if w == 5 {
				return true
			}
		}
		return false
	}
	if !hasEdge(c) {
		c.Succs[2] = append(c.Succs[2], 5)
	}
	m := MinimizeCFG(c, hasEdge)
	if !hasEdge(m) {
		t.Fatal("minimized graph no longer fails")
	}
	if m.NumNodes() > 7 {
		t.Errorf("minimizer left %d nodes (want <= 7):\n%s", m.NumNodes(), m.Dump())
	}
}
