package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// naiveProducers is the reference the slots' register producers are held
// to: a forward scan that remembers each register's last writer in a map,
// -1 for a source no entry wrote and beyond NSrc.
func naiveProducers(entries []trace.Entry) [][2]int32 {
	last := map[uint8]int32{}
	out := make([][2]int32, len(entries))
	for i, e := range entries {
		out[i] = [2]int32{-1, -1}
		for k := 0; k < int(e.NSrc); k++ {
			if p, ok := last[uint8(e.Srcs[k])]; ok {
				out[i][k] = p
			}
		}
		if e.Flags&trace.FlagHasDst != 0 {
			last[uint8(e.Dst)] = int32(i)
		}
	}
	return out
}

// checkSlotProducers steps tr under postdoms and, after every cycle, holds
// the register producers of every live slot, [liveFloor, hi), to the
// naive reference: extend must derive them in trace order, warmup must
// advance the last-writer table over the warm prefix, and a squash must
// keep them. It returns the run's counters.
func checkSlotProducers(tr *trace.Trace, an *core.Analysis, cfg machine.Config) (machine.Stats, error) {
	want := naiveProducers(tr.Entries)
	x := machine.NewStepper(tr, nil, core.PolicyPostdoms.Source(an), cfg)
	defer x.Release()
	for cycle := 0; x.Step(); cycle++ {
		lo, hi := x.Live()
		for i := lo; i < hi; i++ {
			if got := x.Producers(i); got != want[i] {
				return x.Stats(), fmt.Errorf("after cycle %d: index %d's slot holds register producers %v, want %v", cycle, i, got, want[i])
			}
		}
	}
	if x.Retired() != tr.Len() {
		return x.Stats(), fmt.Errorf("retired %d of %d entries", x.Retired(), tr.Len())
	}
	return x.Stats(), nil
}

func reclaimConfig() machine.Config {
	c := machine.PolyFlowConfig()
	c.ReclaimROB = true
	c.ROBSize = 96
	c.ROBReserve = 16
	return c
}

// TestSlotProducersProgenSweep runs the slot check over generated
// programs, cold and with a warm prefix, under the default machine and a
// ReclaimROB one, whose reclaims squash whole tasks.
func TestSlotProducersProgenSweep(t *testing.T) {
	var entries int
	var reclaims, squashed int64
	for seed := uint64(0); seed < 96; seed++ {
		p, err := asm.Assemble(progen.GenAsm(seed))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := emu.Run(p, emu.Config{MaxInstrs: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		entries += tr.Len()
		an, err := core.Analyze(p, tr.IndirectTargets())
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range map[string]machine.Config{"polyflow": machine.PolyFlowConfig(), "reclaim": reclaimConfig()} {
			cfg.WarmupInstrs = int(seed%2) * tr.Len() / 4
			st, err := checkSlotProducers(tr, an, cfg)
			if err != nil {
				t.Fatalf("seed %d, %s, warm %d: %v", seed, name, cfg.WarmupInstrs, err)
			}
			reclaims += st.Reclaims
			squashed += st.SquashedInstrs
		}
	}
	if reclaims == 0 || squashed == 0 {
		t.Fatalf("the sweep reclaimed %d times and squashed %d instructions: want both, or no squash keeps a slot's producers", reclaims, squashed)
	}
	t.Logf("%d entries over 96 programs: %d reclaims, %d squashed instructions", entries, reclaims, squashed)
}

// TestSlotProducersViolations runs the slot check on gap under postdoms
// with the default warm prefix: the workload with the most violation
// squashes.
func TestSlotProducersViolations(t *testing.T) {
	w, ok := workloads.ByName("gap")
	if !ok {
		t.Fatal("no workload gap")
	}
	p := w.Assemble()
	tr, err := emu.Run(p, emu.Config{MaxInstrs: w.MaxInstrs, OS: w.NewOS(), Segments: w.Segments(p)})
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(p, tr.IndirectTargets())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.PolyFlowConfig()
	cfg.WarmupInstrs = min(tr.Len()/5, 50000)
	st, err := checkSlotProducers(tr, an, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations == 0 {
		t.Fatal("gap took no violation squash under postdoms")
	}
	t.Logf("gap: %d violations, %d squashed instructions", st.Violations, st.SquashedInstrs)
}
