// Section 4.4: train the dynamic reconvergence predictor (Collins et al.
// style) on a benchmark's retirement stream, compare its learned
// reconvergence points against the compiler-computed immediate
// postdominators, and measure how close reconvergence-predictor spawning
// gets to compiler-postdominator spawning.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/reconv"
)

func main() {
	benchName := flag.String("bench", "twolf", "workload to analyze")
	flag.Parse()

	bench, err := speculate.Load(*benchName)
	if err != nil {
		log.Fatal(err)
	}

	// Train a predictor offline on the full retirement stream.
	pred := reconv.New(reconv.DefaultConfig())
	for i := range bench.Trace.Entries {
		pred.Observe(&bench.Trace.Entries[i])
	}

	// Compiler truth: branch PC -> ipdom target, for conditional branches.
	truth := map[uint64]uint64{}
	for _, s := range bench.Analysis.Spawns {
		inst, _ := bench.Prog.InstAt(s.From)
		if inst.IsCondBranch() || inst.IsIndirectJump() && !inst.IsReturn() && !inst.IsCall() {
			truth[s.From] = s.Target
		}
	}

	exact, predicted := 0, 0
	for pc, want := range truth {
		got, ok := pred.Predict(pc)
		if !ok {
			continue
		}
		predicted++
		if got == want {
			exact++
		}
	}
	fmt.Printf("%s: %d branch spawn points with compiler ipdoms\n", *benchName, len(truth))
	fmt.Printf("  predictor served %d of them; %d match the ipdom exactly (%.0f%%)\n",
		predicted, exact, 100*float64(exact)/float64(max(predicted, 1)))
	fmt.Println("  (mismatches and unserved branches are the approximation gap the paper")
	fmt.Println("   attributes to warm-up and hard-to-identify reconvergences)")

	base, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		log.Fatal(err)
	}
	post, err := bench.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig())
	if err != nil {
		log.Fatal(err)
	}
	rec, err := bench.RunNamedContext(context.Background(), "rec_pred", machine.PolyFlowConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  compiler postdominators: %+6.1f%% speedup\n", speculate.SpeedupPct(base, post))
	fmt.Printf("  reconvergence predictor: %+6.1f%% speedup (trained online, cold start)\n",
		speculate.SpeedupPct(base, rec))
}
