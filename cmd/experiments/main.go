// Command experiments regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	experiments                   # all figures, text tables
//	experiments -fig 9            # a single figure (5, 8, 9, 10, 11, 12; any other is rejected)
//	experiments -fig 9 -format csv
//	experiments -fig 12 -format json
//	experiments -fig 9 -bench twolf -policy postdoms -trace-dir out/
//	experiments -fig 9 -attrib-dir attrib/
//	experiments -cache-dir ~/.cache/polyflow   # reruns hit the artifact cache
//	experiments -trace-cache ~/.cache/polyflow # decode each workload's trace once
//	experiments -fig 9 -cluster http://127.0.0.1:8180  # run the grid on a polyflowd (coordinator or single daemon)
//
// -bench and -policy take comma-separated lists and narrow the grid to the
// named cells; -trace-dir attaches telemetry to every simulated cell and
// writes a Chrome trace (Perfetto-loadable) plus a metrics summary per cell
// into the directory; -attrib-dir writes a per-spawn-site attribution
// report (JSON, for polystat) per cell; -cache-dir memoizes every cell in a
// content-addressed artifact cache shared with polyflowd, so unchanged
// cells are decoded instead of resimulated. See docs/OBSERVABILITY.md and
// docs/SERVICE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/server"
)

var (
	format        = flag.String("format", "text", "output format: text, csv (every figure) or json (figures 9, 10 and 12)")
	bench         = flag.String("bench", "", "comma-separated benchmark filter (default: all)")
	family        = flag.String("family", "", `workload family for the grid: "synthetic" (default) or "kernels"`)
	policy        = flag.String("policy", "", "comma-separated policy filter (default: all)")
	traces        = flag.String("trace-dir", "", "write per-cell Chrome traces and metrics summaries into this directory")
	attribs       = flag.String("attrib-dir", "", "write per-cell spawn-site attribution reports (JSON) into this directory")
	cacheDir      = flag.String("cache-dir", "", "memoize simulations in a content-addressed artifact cache rooted at this directory")
	traceCacheDir = flag.String("trace-cache", "", "store workload traces as polyflow-trace/1 artifacts in a cache rooted at this directory (decode once, simulate many; defaults to -cache-dir when set)")
	cluster       = flag.String("cluster", "", "execute every cell on a remote polyflowd (single daemon or cluster coordinator) at this base URL instead of simulating locally")
	maskStr       = flag.String("mask", "", `suppress spawn sites in every PolyFlow cell, e.g. "0x40:loop" (polytune emits these; the superscalar column stays unmasked)`)
	logLevel      = flag.String("log-level", "", "emit structured logs to stderr at this level (debug, info, warn, error; empty = off)")
	logFormat     = flag.String("log-format", "text", "structured log format: text or json")
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (0 = all)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (see docs/PERFORMANCE.md)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	want := func(n int) bool { return *fig == 0 || *fig == n }
	if err := checkFig(*fig); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if err := checkFormat(*format, want); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	o, err := options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if err := run(want, o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// checkFig rejects a -fig with no driver in run, before anything runs.
func checkFig(fig int) error {
	switch fig {
	case 0, 5, 8, 9, 10, 11, 12:
		return nil
	}
	return fmt.Errorf("-fig %d: no such figure (have 0 for all, 5, 8, 9, 10, 11 and 12)", fig)
}

// checkFormat rejects a -format that some selected figure cannot write,
// before anything runs: every figure writes text and csv, and only 9, 10
// and 12 write json.
func checkFormat(format string, want func(int) bool) error {
	switch format {
	case "text", "csv":
		return nil
	case "json":
		for _, n := range []int{5, 8, 11} {
			if want(n) {
				return fmt.Errorf("-format json: figure %d has no JSON writer (json covers figures 9, 10 and 12)", n)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown -format %q (have text, csv, json)", format)
}

// options assembles the harness Options from the filter flags.
func options() (harness.Options, error) {
	o := harness.Options{
		Benches:   splitList(*bench),
		Family:    *family,
		Policies:  splitList(*policy),
		TraceDir:  *traces,
		AttribDir: *attribs,
	}
	if *logLevel != "" {
		logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			return o, err
		}
		o.Logger = logger
	}
	mask, err := machine.ParseSpawnMask(*maskStr)
	if err != nil {
		return o, err
	}
	o.SpawnMask = mask
	if *cacheDir != "" {
		cache, err := artifact.New(artifact.Options{Dir: *cacheDir})
		if err != nil {
			return o, err
		}
		o.Cache = cache
	}
	if *traceCacheDir != "" {
		// The trace cache falls back to o.Cache when unset, so this flag
		// only matters for a separate trace-artifact directory.
		cache, err := artifact.New(artifact.Options{Dir: *traceCacheDir})
		if err != nil {
			return o, err
		}
		o.TraceCache = cache
	}
	if *cluster != "" {
		if *traces != "" {
			return o, fmt.Errorf("-trace-dir needs a live local run and cannot combine with -cluster")
		}
		o.Remote = &server.Client{Base: strings.TrimRight(*cluster, "/"), Retry: server.DefaultRetry()}
	}
	return o, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func emitSpeedup(t *harness.SpeedupTable) error {
	switch *format {
	case "csv":
		return t.WriteCSV(os.Stdout)
	case "json":
		return t.WriteJSON(os.Stdout)
	default:
		fmt.Println(t.Format())
		return nil
	}
}

func run(want func(int) bool, o harness.Options) error {
	if want(5) {
		rows, err := harness.Figure5Opts(o)
		if err != nil {
			return err
		}
		if *format == "csv" {
			if err := harness.WriteFigure5CSV(os.Stdout, rows); err != nil {
				return err
			}
		} else {
			fmt.Println(harness.FormatFigure5(rows))
		}
	}
	if want(8) {
		if *format == "csv" {
			if err := harness.WriteFigure8CSV(os.Stdout); err != nil {
				return err
			}
		} else {
			fmt.Println(harness.Figure8())
		}
	}
	if want(9) {
		t, err := harness.Figure9Opts(o)
		if err != nil {
			return err
		}
		if err := emitSpeedup(t); err != nil {
			return err
		}
	}
	if want(10) {
		t, err := harness.Figure10Opts(o)
		if err != nil {
			return err
		}
		if err := emitSpeedup(t); err != nil {
			return err
		}
	}
	if want(11) {
		t, err := harness.Figure11Opts(o)
		if err != nil {
			return err
		}
		if *format == "csv" {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			fmt.Println(t.Format())
		}
	}
	if want(12) {
		t, err := harness.Figure12Opts(o)
		if err != nil {
			return err
		}
		if err := emitSpeedup(t); err != nil {
			return err
		}
	}
	return nil
}
