// Quickstart: assemble a small program, find its control-equivalent spawn
// points from branch immediate postdominators, and compare the PolyFlow
// speculative parallelization machine against the superscalar baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
)

// A loop dominated by a hard-to-predict if-then-else: the canonical
// situation in which spawning at the branch's immediate postdominator (the
// join) lets fetch proceed past mispredictions.
const program = `
        .func main
main:   li   $s7, 2463534242     # xorshift state
        li   $t9, 20000           # iterations
loop:   sll  $t0, $s7, 13
        xor  $s7, $s7, $t0
        srl  $t0, $s7, 7
        xor  $s7, $s7, $t0
        sll  $t0, $s7, 17
        xor  $s7, $s7, $t0
        andi $t1, $s7, 1
        beq  $t1, $zero, els     # 50/50 branch: ~half mispredict
        addi $s0, $s0, 3
        sll  $t2, $s0, 2
        xor  $s1, $s1, $t2
        j    join
els:    addi $s0, $s0, 5
        sub  $s1, $s1, $s0
join:   andi $s1, $s1, 0xffff
        addi $t9, $t9, -1
        bgtz $t9, loop
        halt
`

func main() {
	prog, err := speculate.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := speculate.Prepare("quickstart", prog, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("program: %d static, %d dynamic instructions\n",
		len(prog.Code), bench.Trace.Len())

	fmt.Println("\ncontrol-equivalent spawn points (from immediate postdominators):")
	for _, s := range bench.Analysis.Spawns {
		fmt.Printf("  %-8s trigger %s  ->  spawn %s\n",
			s.Kind, prog.SymbolFor(s.From), prog.SymbolFor(s.Target))
	}

	base, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsuperscalar: %6d cycles, IPC %.2f, %d mispredicts\n",
		base.Cycles, base.IPC, base.Mispredicts)

	res, err := bench.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("polyflow:    %6d cycles, IPC %.2f, %d spawns, peak %d tasks\n",
		res.Cycles, res.IPC, res.SpawnsTaken, res.PeakTasks)
	fmt.Printf("\ncontrol-equivalent spawning speedup: %+.1f%%\n",
		speculate.SpeedupPct(base, res))
}
