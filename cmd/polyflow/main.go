// Command polyflow runs one workload on one machine configuration and
// prints IPC and machine statistics.
//
// Usage:
//
//	polyflow -bench twolf -policy postdoms
//	polyflow -bench mcf -policy superscalar
//	polyflow -bench gcc -policy rec_pred
//	polyflow -bench twolf -policy postdoms -trace twolf.trace.json -metrics
//	polyflow -bench gzip -policy postdoms -attrib gzip.attrib.json
//	polyflow -bench gcc -policy postdoms -timeout 30s
//	polyflow -bench gzip -trace-out gzip.trace
//	polyflow -bench gzip -policy loop -trace-in gzip.trace
//	polyflow -list
//
// -trace writes the run's cycle timeline as Chrome trace-event JSON (open
// it in Perfetto: ui.perfetto.dev); -metrics prints the full telemetry
// summary after the run; -attrib writes the per-spawn-site attribution
// report as JSON (render or compare it with polystat); -timeout bounds the
// whole run (the simulation's context is canceled and the cycle loop aborts
// promptly). See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

func main() {
	benchName := flag.String("bench", "twolf", "workload name")
	policyName := flag.String("policy", "postdoms", "spawn policy: superscalar, rec_pred, or one of the static policies")
	tasks := flag.Int("tasks", 8, "maximum concurrent tasks")
	verbose := flag.Bool("v", false, "print spawn-point statistics")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file")
	metrics := flag.Bool("metrics", false, "print the telemetry metrics summary after the run")
	attribFile := flag.String("attrib", "", "write the per-spawn-site attribution report as JSON to this file")
	maskStr := flag.String("mask", "", `suppress spawn sites, e.g. "0x40:loop,0x100:hammock" (polytune emits these; meaningless with -policy superscalar)`)
	traceOut := flag.String("trace-out", "", "write the workload's binary trace artifact (polyflow-trace/1) to this file")
	traceIn := flag.String("trace-in", "", "load the workload's trace from this polyflow-trace/1 file instead of emulating (as written by -trace-out or served by GET /v1/traces)")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this long (e.g. 30s; 0 = no limit)")
	list := flag.Bool("list", false, "list workloads and policies")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (see docs/PERFORMANCE.md)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *list {
		fmt.Println("workloads:", speculate.WorkloadNames())
		fmt.Println("kernels:", speculate.FamilyWorkloadNames("kernels"))
		fmt.Println("policies:", speculate.PolicyNames())
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polyflow:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "polyflow:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *benchName, *policyName, *tasks, *verbose, *traceFile, *metrics, *attribFile, *traceOut, *traceIn, *maskStr); err != nil {
		fmt.Fprintln(os.Stderr, "polyflow:", err)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polyflow:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "polyflow:", err)
			os.Exit(1)
		}
	}
}

func run(ctx context.Context, benchName, policyName string, tasks int, verbose bool, traceFile string, metrics bool, attribFile, traceOut, traceIn, maskStr string) error {
	mask, err := machine.ParseSpawnMask(maskStr)
	if err != nil {
		return err
	}
	if mask.Len() > 0 && policyName == "superscalar" {
		return fmt.Errorf("-mask is meaningless for the superscalar baseline (no spawns to suppress)")
	}
	var b *speculate.Bench
	if traceIn != "" {
		data, rerr := os.ReadFile(traceIn)
		if rerr != nil {
			return rerr
		}
		b, err = speculate.LoadFromTraceData(benchName, data)
	} else {
		b, err = speculate.Load(benchName)
	}
	if err != nil {
		return err
	}
	if traceOut != "" {
		data, err := b.EncodeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  trace artifact written to %s (%d bytes, replay with -trace-in)\n", traceOut, len(data))
	}
	fmt.Printf("%s: %d static instrs, %d dynamic instrs, %d spawn points\n",
		b.Name, len(b.Prog.Code), b.Trace.Len(), len(b.Analysis.Spawns))
	if verbose {
		counts := b.Analysis.CountByKind()
		for k := core.Kind(0); k < core.NumKinds; k++ {
			fmt.Printf("  %-8s %d static spawn points\n", k, counts[k])
		}
	}

	// One Collector (and one attribution table) observes one run, so both
	// are attached to whichever run the -policy flag selects (for
	// "superscalar", the baseline itself).
	var col *telemetry.Collector
	if traceFile != "" || metrics {
		n := 0 // metrics only
		if traceFile != "" {
			n = telemetry.DefaultTraceEvents
		}
		col = telemetry.NewCollector(telemetry.Config{TraceEvents: n})
	}
	var tbl *attrib.Table
	if attribFile != "" {
		tbl = attrib.NewTable()
	}

	if policyName == "superscalar" {
		cfg := machine.SuperscalarConfig()
		cfg.Telemetry = col
		cfg.Attribution = tbl
		base, err := b.RunNamedContext(ctx, "superscalar", cfg)
		if err != nil {
			return err
		}
		fmt.Println(" ", base)
		return finish(col, tbl, b.Name, policyName, base, traceFile, metrics, attribFile)
	}

	base, err := b.RunNamedContext(ctx, "superscalar", machine.SuperscalarConfig())
	if err != nil {
		return err
	}
	fmt.Println(" ", base)

	cfg := machine.PolyFlowConfig()
	cfg.MaxTasks = tasks
	cfg.Telemetry = col
	cfg.Attribution = tbl
	cfg.SpawnMask = mask
	if mask.Len() > 0 {
		fmt.Printf("  suppressing %d spawn sites: %s\n", mask.Len(), mask.Encode())
	}
	res, err := b.RunNamedContext(ctx, policyName, cfg)
	if err != nil {
		return err
	}
	fmt.Println(" ", res)
	fmt.Printf("  speedup over superscalar: %+.1f%%\n", speculate.SpeedupPct(base, res))
	if verbose {
		fmt.Printf("  spawns by kind:")
		for k := core.Kind(0); k < core.NumKinds; k++ {
			fmt.Printf(" %s=%d", k, res.SpawnsByKind[k])
		}
		fmt.Printf("\n  diverted=%d violations=%d squashed=%d peakTasks=%d avgTasks=%.2f rejected=%d\n",
			res.Diverted, res.Violations, res.SquashedInstrs, res.PeakTasks,
			float64(res.TaskCycles)/float64(res.Cycles), res.SpawnsRejected)
		fmt.Printf("  foreclosures=%d\n", res.Foreclosures)
		fmt.Printf("  mispredicts=%d icacheMiss=%d dcacheMiss=%d l2Miss=%d icacheStall=%d\n",
			res.Mispredicts, res.ICacheMisses, res.DCacheMisses, res.L2Misses, res.ICacheStallCycle)
	}
	return finish(col, tbl, b.Name, policyName, res, traceFile, metrics, attribFile)
}

// finish writes the trace and attribution files and/or prints the metrics
// summary.
func finish(col *telemetry.Collector, tbl *attrib.Table, bench, policy string, res machine.Result, traceFile string, metrics bool, attribFile string) error {
	if col != nil && traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f, res.Config); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  trace written to %s (load in ui.perfetto.dev)\n", traceFile)
	}
	if col != nil && metrics {
		fmt.Println()
		if err := col.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	if tbl != nil {
		if err := machine.VerifyAttribution(tbl, res); err != nil {
			return err
		}
		rep := attrib.NewReport(tbl, bench, policy, res.Config, res.Cycles, res.Retired)
		if err := rep.WriteFile(attribFile); err != nil {
			return err
		}
		fmt.Printf("  attribution written to %s (render with: polystat report %s)\n", attribFile, attribFile)
	}
	return nil
}
