// Compile a mini-C program with the repository's own compiler, then run
// the whole reproduction pipeline on the compiler-generated code: spawn
// points from immediate postdominators, and PolyFlow vs superscalar. This
// mirrors the paper's setup, where the analyzed binaries come from a
// compiler rather than hand-written assembly.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/machine"
)

// A miniature annealer in mini-C: hard accept/reject hammocks inside a hot
// loop, a helper call, and array state — the control-flow shapes the
// paper's taxonomy classifies.
const source = `
var pos[1024];
var seed;

func rnd() {
  seed = seed * 1103515245 + 12345;
  return (seed >> 8) & 0x7fffffff;
}

func cost(a, b) {
  var d = pos[a & 1023] - pos[b & 1023];
  if (d < 0) { d = -d; }
  return d;
}

func main() {
  var i; var moves = 4000; var total = 0;
  seed = 99991;
  for (i = 0; i < 1024; i = i + 1) { pos[i] = rnd() & 4095; }
  for (i = 0; i < moves; i = i + 1) {
    var a = rnd(); var b = rnd();
    var delta = cost(a, b) - (rnd() & 1023);
    if (delta < 0 || (rnd() & 7) == 0) {
      var t = pos[a & 1023];        // accept: swap
      pos[a & 1023] = pos[b & 1023];
      pos[b & 1023] = t;
      total = total + delta;
    } else {
      total = total + 1;            // reject
    }
  }
  return total;
}`

func main() {
	prog, err := cc.CompileAndAssemble(source)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := speculate.Prepare("minicc-anneal", prog, 10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d static instrs, %d dynamic instrs\n",
		len(prog.Code), bench.Trace.Len())

	kinds := bench.Analysis.CountByKind()
	fmt.Printf("spawn points found in compiled code:")
	for k := core.Kind(0); k < core.NumKinds; k++ {
		fmt.Printf(" %s=%d", k, kinds[k])
	}
	fmt.Println()

	base, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range []core.Policy{core.PolicyHammock, core.PolicyProcFT, core.PolicyPostdoms} {
		res, err := bench.RunNamedContext(context.Background(), p.Name, machine.PolyFlowConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %+7.1f%%\n", p.Name, speculate.SpeedupPct(base, res))
	}
}
