// Command perfbench is the repository benchmark. It runs one named
// workload under a seed for a fixed time, checks the simulator's outputs,
// and prints its metrics: the end-to-end metrics from an untraced run
// (--trace 0), or the per-layer metrics from a traced run (--trace 1).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// record (host fingerprint and every applicable metric), which
// `perfbench compare` reads. See README.md.
//
//	perfbench --workload figure-grid --seed 1 --seconds 30 --trace 0
//	perfbench compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times each run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 7

// maxWorkers caps the pools, client goroutines and connections of every
// workload (further capped by the host's CPU count), so the benchmark does
// the same work on any host with at least two CPUs.
const maxWorkers = 2

// workload is one named benchmark workload. setup runs setupReps times
// before the first timed op; window runs closed-loop ops until d has
// passed (finishing the op group in flight) and records them in w. A nil
// tracer means an untraced call.
type workload interface {
	setup(e *env, t *tracer) error
	window(e *env, t *tracer, d time.Duration, w *window) error
	// layers adds the workload's per-layer metrics from the traced window.
	layers(e *env, traced *window, m metrics)
	// extras adds the workload-specific end-to-end metrics of a window.
	extras(w *window, m metrics)
	close()
}

var workloadNames = []string{"figure-grid", "service-mix", "cold-start"}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "figure-grid":
		return &figureGrid{}, true
	case "service-mix":
		return &serviceMix{}, true
	case "cold-start":
		return &coldStart{}, true
	}
	return nil, false
}

// env is the run's shared configuration.
type env struct {
	rng     *rand.Rand // op order and request streams; used under each workload's own discipline
	workers int
	work    string // scratch directory inside the checkout
	opSeq   atomic.Int64
}

// op returns a fresh op ID for tagging spans.
func (e *env) op() int64 { return e.opSeq.Add(1) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed for op order and request streams")
	seconds := fs.Int("seconds", 0, "measured seconds per run (default: run_seconds of the benchmark definition)")
	traceFlag := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory (inside the checkout)")
	updateRef := fs.String("update-reference", "", "figure-grid only: write the (Cycles, Retired) reference table to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	w, ok := newWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames, ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	traced := *traceFlag == 1
	runDir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	e := &env{rng: rand.New(rand.NewSource(*seed)), workers: min(maxWorkers, runtime.NumCPU()), work: runDir}
	defer w.close()

	if *updateRef != "" {
		g, ok := w.(*figureGrid)
		if !ok {
			return errors.New("--update-reference applies to figure-grid only")
		}
		return g.writeReference(e, *updateRef)
	}

	var t *tracer
	if traced {
		t = newTracer()
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(e, t); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(*seconds) * time.Second
	rec := record{
		Perfbench: recordVersion, Workload: *name, Seed: *seed, Seconds: *seconds,
		Trace: *traceFlag, Host: fingerprint(), SetupS: setups,
		Metrics: metrics{}, Counts: map[string]int{},
	}
	var windows []*window
	if !traced {
		main := &window{peakReset: resetPeakRSS()}
		if err := w.window(e, nil, d, main); err != nil {
			return err
		}
		main.passDone() // a window that ended inside its first pass
		windows = append(windows, main)
		endToEnd(rec.Metrics, main, setups)
		w.extras(main, rec.Metrics)
		rec.Metrics.set("failed_frac", main.failedFrac(), "frac")
	} else {
		// The traced run measures half its time untraced and half traced,
		// so it reports its own overhead against an untraced window of the
		// same process.
		base, tw := &window{}, &window{}
		if err := w.window(e, nil, d/2, base); err != nil {
			return err
		}
		w.extras(base, rec.Metrics)
		// The runtime's CPU classes advance only when a GC ends, so a
		// forced GC lines their first sample up with the window's start.
		runtime.GC()
		cpu0 := readCPU()
		if err := w.window(e, t, d-d/2, tw); err != nil {
			return err
		}
		cpu1 := readCPU()
		rec.Metrics.set("go.gc_cpu_frac", cpu1.gcFracSince(cpu0), "frac")
		rec.Metrics.set("go.gc_cycles", float64(cpu1.cycles-cpu0.cycles), "count")
		windows = append(windows, base, tw)
		layerMetrics(rec.Metrics, t)
		w.layers(e, tw, rec.Metrics)
		rec.Metrics.set("failed_frac", base.failedFrac(), "frac")
		bo, to := base.opsPerS(), tw.opsPerS()
		rec.Metrics.set("perfbench.trace_overhead_pct", (bo-to)/bo*100, "%")
		rec.Metrics.set("perfbench.spans", float64(t.count()), "count")
		spans := filepath.Join(*work, fmt.Sprintf("%s-seed%d.spans.json", *name, *seed))
		if err := t.writeChrome(spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %s (Chrome trace-event JSON, loads in Perfetto)\n", spans)
	}
	for _, win := range windows {
		rec.Attempted += win.attempted
		rec.Failed += win.failed
		for _, msg := range win.errs {
			fmt.Fprintln(os.Stderr, "failed op:", msg)
		}
	}
	rec.Correct = rec.Failed == 0
	rec.Counts["ops"] = len(windows[0].all)
	rec.Counts["hits"] = len(windows[0].hits)
	rec.Counts["misses"] = len(windows[0].misses)

	names := spec.EndToEnd
	if traced {
		names = spec.PerLayer
		fillMissing(rec.Metrics, names)
	}
	out := result{Correct: rec.Correct, Attempted: max(rec.Attempted, 1), Failed: rec.Failed, Metrics: metrics{}}
	for _, n := range names {
		m, ok := rec.Metrics[n.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s lists %s, which the %s run did not measure", specFile, n.Name, *name)
		case m.Unit != n.Unit:
			return fmt.Errorf("%s gives %s the unit %q, but the benchmark measures it in %q", specFile, n.Name, n.Unit, m.Unit)
		}
		out.Metrics[n.Name] = m
	}
	printHuman(stdout, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// endToEnd fills the metrics every workload reports on an untraced window.
func endToEnd(m metrics, w *window, setups []float64) {
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", w.opsPerS(), "1/s")
	m.set("op_ms_p50", percentile(w.all, 0.50), "ms")
	m.set("op_ms_p90", percentile(w.all, 0.90), "ms")
	rss := w.peakMB
	if rss == 0 {
		fmt.Fprintln(os.Stderr, "max_rss_mb: the peak could not be reset before the window; reporting the process's peak")
		rss = maxRSSMB()
	}
	m.set("max_rss_mb", rss, "MB")
}

// resetPeakRSS returns freed heap memory to the OS and resets the kernel's
// peak resident set mark (VmHWM) to the current resident set, so that the
// peak read afterwards is the peak of what ran since. It reports whether
// the kernel accepted the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// vmHWM is the peak resident set size in MB since resetPeakRSS, from
// /proc/self/status (0 when unreadable).
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// maxRSSMB is the whole process's peak resident set size, set-up included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printHuman writes every metric of the record, one per line, sorted.
func printHuman(w io.Writer, rec record) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d setup_s=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.SetupS)
	fmt.Fprintf(w, "host: %s\n", rec.Host)
	fmt.Fprintf(w, "ops: %d (hits %d, misses %d), attempted %d, failed %d\n",
		rec.Counts["ops"], rec.Counts["hits"], rec.Counts["misses"], rec.Attempted, rec.Failed)
	keys := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
}
