// The paper's Section 2.3 walkthrough on the twolf new_dbox_a kernel
// (Figure 6): loop-iteration spawns are recovered by the combination of
// hammock spawns (which hop the hard branches inside the inner loop) and
// loop fall-through spawns (which expose outer-loop parallelism), so
// spawning from the full immediate-postdominator set matches or beats the
// classic loop-iteration heuristic.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	bench, err := speculate.Load("twolf")
	if err != nil {
		log.Fatal(err)
	}
	prog := bench.Prog

	fmt.Println("twolf new_dbox_a kernel — spawn-point anatomy (cf. Figure 6):")
	for _, s := range bench.Analysis.Spawns {
		if f, _ := prog.FuncOf(s.From); prog.Symbols[f] != "new_dbox_a" {
			continue
		}
		fmt.Printf("  %-8s %-22s -> %s\n", s.Kind,
			prog.SymbolFor(s.From), prog.SymbolFor(s.Target))
	}
	fmt.Println(`
The three hammocks are the if-then-else on netptr->flag and the two ABS()
if-thens; the inner latch's loopFT spawn starts the next outer-iteration
tail — together they recover the inner- and outer-loop iteration spawns
(9da0->9dd8 and 9d60->9f28 in the paper's addresses).`)

	base, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("superscalar IPC: %.2f\n\n", base.IPC)

	for _, p := range []core.Policy{
		core.PolicyLoop, core.PolicyLoopFT, core.PolicyHammock, core.PolicyPostdoms,
	} {
		res, err := bench.RunNamedContext(context.Background(), p.Name, machine.PolyFlowConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s speedup %+7.1f%%  (spawns %6d: loop=%d loopFT=%d hammock=%d)\n",
			p.Name, speculate.SpeedupPct(base, res), res.SpawnsTaken,
			res.SpawnsByKind[core.KindLoop], res.SpawnsByKind[core.KindLoopFT],
			res.SpawnsByKind[core.KindHammock])
	}
}
