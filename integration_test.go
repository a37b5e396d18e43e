// Cross-cutting integration tests: invariants that must hold for every
// workload × policy combination, end to end (assembler -> emulator ->
// analysis -> timing simulation).
package speculate_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
)

// TestEveryWorkloadEveryPolicyRetiresExactly runs a representative policy
// set over every workload and checks the fundamental correctness
// invariants: all post-warmup instructions retire, and no simulation is
// slower than 1/20th of an instruction per cycle (a deadlock canary).
func TestEveryWorkloadEveryPolicyRetiresExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation sweep")
	}
	policies := []core.Policy{core.PolicyLoop, core.PolicyHammock, core.PolicyPostdoms}
	for _, name := range speculate.AllWorkloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := speculate.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			base, err := b.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range policies {
				res, err := b.RunNamedContext(context.Background(), p.Name, machine.PolyFlowConfig())
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if res.Retired != base.Retired {
					t.Errorf("%s: retired %d, superscalar retired %d", p.Name, res.Retired, base.Retired)
				}
				if res.IPC < 0.05 {
					t.Errorf("%s: IPC %.3f looks like a livelock", p.Name, res.IPC)
				}
			}
		})
	}
}

// TestSpawnTargetsAreControlEquivalent verifies the core property on real
// workloads: every static spawn target is the start of the block that
// immediately postdominates the trigger's block — i.e. whenever the
// trigger retires on the correct path, the target is guaranteed to retire
// later (checked empirically against the trace for a sample).
func TestSpawnTargetsAreControlEquivalent(t *testing.T) {
	for _, name := range []string{"twolf", "crafty", "gcc"} {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, s := range b.Analysis.Spawns {
			if s.Kind == core.KindLoop {
				continue // the loop heuristic is not an ipdom spawn
			}
			// Empirical control equivalence: for up to 50 occurrences of
			// the trigger, the target must occur later in the trace
			// (bounded by the function's dynamic extent; use a generous
			// window).
			occ := b.Trace.Occurrences(s.From)
			n := len(occ)
			if n > 50 {
				n = 50
			}
			for i := 0; i < n; i++ {
				at := int(occ[i])
				if next := b.Trace.NextOccurrence(s.Target, at); next < 0 {
					// The final occurrences may legitimately never reach
					// the target (program ends inside the region).
					if i < n-2 {
						t.Errorf("%s: spawn %s->%s: trigger at %d never reaches target",
							name, b.Prog.SymbolFor(s.From), b.Prog.SymbolFor(s.Target), at)
					}
					break
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s: no spawn occurrences checked", name)
		}
	}
}

// TestSimulationIsDeterministic: repeated preparation and simulation of
// the same workload yields identical traces and cycle counts.
func TestSimulationIsDeterministic(t *testing.T) {
	w1, err := speculate.Load("crafty")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh, uncached preparation of the same source.
	w2, err := speculate.Prepare("crafty-again", w1.Prog, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Trace.Len() != w2.Trace.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", w1.Trace.Len(), w2.Trace.Len())
	}
	r1, err := w1.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w2.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.SpawnsTaken != r2.SpawnsTaken || r1.Mispredicts != r2.Mispredicts {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// TestEmulatedResultsSurviveSimulation: the timing model never alters
// architectural results — the trace IS the execution. Spot-check that the
// final store of each workload's trace writes the same value across
// machine configurations (trivially true by construction; this guards the
// property against future "optimizations" that might mutate the trace).
func TestEmulatedResultsSurviveSimulation(t *testing.T) {
	b, err := speculate.Load("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var lastStore *struct {
		addr uint64
		idx  int
	}
	for i := range b.Trace.Entries {
		if b.Trace.Entries[i].IsStore() {
			lastStore = &struct {
				addr uint64
				idx  int
			}{b.Trace.Entries[i].Addr, i}
		}
	}
	if lastStore == nil {
		t.Fatal("gzip trace has no stores")
	}
	before := b.Trace.Entries[lastStore.idx]
	if _, err := b.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig()); err != nil {
		t.Fatal(err)
	}
	if b.Trace.Entries[lastStore.idx] != before {
		t.Fatalf("simulation mutated the trace")
	}
}

// TestISAInvariant: every workload's static code avoids the assembler
// temporary except through synthesized branches, and never writes $zero.
func TestISAInvariant(t *testing.T) {
	for _, name := range speculate.WorkloadNames() {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range b.Prog.Code {
			if d, ok := inst.Dst(); ok && d == isa.Zero {
				t.Errorf("%s: instruction %d writes $zero", name, i)
			}
		}
	}
}
