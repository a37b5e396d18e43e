package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// parallel runs fn(lane, i) for every i in [0, n) on e.workers goroutines
// and returns once all have finished.
func (e *env) parallel(n int, fn func(lane, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < e.workers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(l, i)
			}
		}(l)
	}
	wg.Wait()
}

// prepareAll prepares every workload without an artifact cache. Untraced
// it goes through speculate.LoadCached, the call every run path uses;
// traced it makes the same layer calls itself (see prepareTraced).
func prepareAll(e *env, t *tracer) ([]*speculate.Bench, error) {
	speculate.ClearBenchCache()
	names := speculate.AllWorkloadNames()
	out := make([]*speculate.Bench, len(names))
	errs := make([]error, len(names))
	e.parallel(len(names), func(l, i int) {
		if t == nil {
			out[i], _, errs[i] = speculate.LoadCached(names[i], nil)
			return
		}
		w, _ := workloads.ByName(names[i])
		out[i], errs[i] = prepareTraced(t, lane(l), e.op(), "prepare", w)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepareTraced prepares one workload with a span around each layer call,
// in the order speculate's emulation path makes them: assemble, emulate,
// architectural re-check, analyze, dependence scan.
func prepareTraced(t *tracer, ln string, op int64, parent string, w workloads.Workload) (*speculate.Bench, error) {
	sp := t.start(ln, op, parent, "workloads.Workload.Assemble")
	prog := w.Assemble()
	sp.end(0)
	return prepareProgTraced(t, ln, op, parent, w, prog)
}

// prepareProgTraced is prepareTraced after assembly.
func prepareProgTraced(t *tracer, ln string, op int64, parent string, w workloads.Workload, prog *isa.Program) (*speculate.Bench, error) {
	sp := t.start(ln, op, parent, "emu.Run")
	tr, err := emu.Run(prog, emu.Config{MaxInstrs: w.MaxInstrs, OS: w.NewOS(), Segments: w.Segments(prog)})
	if err != nil {
		return nil, fmt.Errorf("emulating %s: %w", w.Name, err)
	}
	sp.end(float64(tr.Len()))
	sp = t.start(ln, op, parent, "emu.CheckOS")
	err = emu.CheckOS(prog, tr, w.NewOS())
	sp.end(0)
	if err != nil {
		return nil, fmt.Errorf("checking %s: %w", w.Name, err)
	}
	sp = t.start(ln, op, parent, "core.Analyze")
	an, err := core.Analyze(prog, tr.IndirectTargets())
	sp.end(0)
	if err != nil {
		return nil, fmt.Errorf("analyzing %s: %w", w.Name, err)
	}
	sp = t.start(ln, op, parent, "trace.Trace.ComputeDeps")
	deps := tr.ComputeDeps()
	sp.end(0)
	return &speculate.Bench{
		Name: w.Name, Prog: prog, Trace: tr, Deps: deps, Analysis: an,
		SourceSHA: w.SHA(), MaxInstrs: w.MaxInstrs,
	}, nil
}
