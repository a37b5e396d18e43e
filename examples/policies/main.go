// Side-by-side spawn-policy comparison on one workload: a single row of
// the paper's Figure 9 (individual heuristics), Figure 10 (combinations),
// and Figure 12 (dynamic reconvergence prediction).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
)

func main() {
	benchName := flag.String("bench", "mcf", "workload to sweep")
	flag.Parse()

	bench, err := speculate.Load(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	base, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: superscalar IPC %.2f (%d instrs, %d mispredicts, %d I$ misses, %d D$ misses)\n\n",
		*benchName, base.IPC, base.Retired, base.Mispredicts, base.ICacheMisses, base.DCacheMisses)

	policies := core.IndividualPolicies()
	policies = append(policies, core.CombinationPolicies()[:3]...)

	fmt.Printf("%-24s %9s %8s %9s %9s\n", "policy", "speedup%", "spawns", "squashes", "avgTasks")
	for _, p := range policies {
		res, err := bench.RunNamedContext(context.Background(), p.Name, machine.PolyFlowConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %+9.1f %8d %9d %9.2f\n", p.Name,
			speculate.SpeedupPct(base, res), res.SpawnsTaken, res.Violations,
			float64(res.TaskCycles)/float64(res.Cycles))
	}
	rec, err := bench.RunNamedContext(context.Background(), "rec_pred", machine.PolyFlowConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %+9.1f %8d %9d %9.2f\n", "rec_pred (dynamic)",
		speculate.SpeedupPct(base, rec), rec.SpawnsTaken, rec.Violations,
		float64(rec.TaskCycles)/float64(rec.Cycles))
}
