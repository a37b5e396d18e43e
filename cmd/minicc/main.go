// Command minicc compiles a mini-C source file (see internal/cc) to the
// repository's assembly, and can run it or push it through the full
// spawn-analysis + simulation pipeline.
//
// Usage:
//
//	minicc prog.c                 # print generated assembly
//	minicc -run prog.c            # compile, execute, print main's result
//	minicc -simulate prog.c       # compile, analyze, compare machines
//
// Output format:
//
//   - default: the generated assembly text on stdout, nothing else.
//   - -run: one line on stdout, "main returned <v> (<n> instructions
//     executed)".
//   - -simulate: two lines on stdout — "<s> static instrs, <d> dynamic
//     instrs, <k> spawn points" then "superscalar IPC <x>; polyflow/postdoms
//     IPC <y> (<pct>%)".
//
// On any failure (unreadable file, compile error, runtime fault) minicc
// prints a single "minicc: <reason>" diagnostic line to stderr and exits
// with status 1; internal panics are caught and reported the same way.
// Bad usage exits with status 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

func main() {
	run := flag.Bool("run", false, "execute the program and print main's return value")
	simulate := flag.Bool("simulate", false, "simulate superscalar vs PolyFlow")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: minicc [-run|-simulate] file.c

  (default)  print the generated assembly on stdout
  -run       print "main returned <v> (<n> instructions executed)"
  -simulate  print the static/dynamic/spawn summary line, then
             "superscalar IPC <x>; polyflow/postdoms IPC <y> (<pct>%)"

errors are reported as one "minicc: <reason>" line on stderr, exit 1`)
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	if err := drive(string(src), *run, *simulate); err != nil {
		fail(err)
	}
}

// fail prints a single-line diagnostic and exits non-zero. Multi-line
// error text is collapsed so shell pipelines and editors see exactly one
// line per failure.
func fail(err error) {
	msg := strings.Join(strings.Fields(err.Error()), " ")
	fmt.Fprintln(os.Stderr, "minicc:", msg)
	os.Exit(1)
}

// drive runs the selected mode, converting any internal panic from the
// compiler or machine layers into an ordinary error so the process never
// dies with a bare stack trace on user input.
func drive(src string, run, simulate bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	asmText, err := cc.Compile(src)
	if err != nil {
		return err
	}
	if !run && !simulate {
		fmt.Print(asmText)
		return nil
	}
	prog, err := cc.CompileAndAssemble(src)
	if err != nil {
		return err
	}
	if run {
		m := emu.New(prog, 0)
		for !m.Halted && m.Count < 50_000_000 {
			if err := m.Step(nil); err != nil {
				return err
			}
		}
		if !m.Halted {
			return fmt.Errorf("instruction limit reached without halt")
		}
		fmt.Printf("main returned %d (%d instructions executed)\n",
			m.Regs[isa.V0], m.Count)
		return nil
	}
	bench, err := speculate.Prepare("minicc", prog, 50_000_000)
	if err != nil {
		return err
	}
	fmt.Printf("%d static instrs, %d dynamic instrs, %d spawn points\n",
		len(prog.Code), bench.Trace.Len(), len(bench.Analysis.Spawns))
	base, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		return err
	}
	res, err := bench.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig())
	if err != nil {
		return err
	}
	fmt.Printf("superscalar IPC %.2f; polyflow/postdoms IPC %.2f (%+.1f%%)\n",
		base.IPC, res.IPC, speculate.SpeedupPct(base, res))
	return nil
}
