package speculate_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/harness"
)

// The perf trajectory of the timing model is recorded in
// BENCH_simulator.json. Refresh it after simulator performance work with:
//
//	go test -run TestWriteBenchBaseline -bench-baseline -bench-label "short description" .
//
// The file is append-only history: each entry captures ns/op, B/op and
// allocs/op for the simulator, grid and trace-replay benchmarks at one
// commit, with the host it ran on, so regressions and wins stay visible
// over time (see docs/PERFORMANCE.md).
var (
	benchBaseline = flag.Bool("bench-baseline", false, "measure simulator benchmarks and append an entry to BENCH_simulator.json")
	benchLabel    = flag.String("bench-label", "", "label for the BENCH_simulator.json entry")
)

type benchEntry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// benchHost fingerprints the measuring host: a figure is only comparable
// with one taken on as many CPUs, under the same GOMAXPROCS and GOARCH.
type benchHost struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
}

type benchRecord struct {
	Label      string                `json:"label"`
	Date       string                `json:"date"`
	Go         string                `json:"go"`
	Host       benchHost             `json:"host"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
	// KernelsPostdomsSpeedupPct records each kernels-family workload's
	// postdoms speedup over the superscalar baseline at this commit, so
	// the family's headline numbers live next to the perf history.
	KernelsPostdomsSpeedupPct map[string]float64 `json:"kernels_postdoms_speedup_pct,omitempty"`
}

// benchHistory keeps existing entries as raw JSON: the file also holds
// entries written by other tools (the historic service records of the
// since-removed load generator), whose fields must survive a baseline
// append untouched.
type benchHistory struct {
	History []json.RawMessage `json:"history"`
}

func TestWriteBenchBaseline(t *testing.T) {
	if !*benchBaseline {
		t.Skip("run with -bench-baseline to measure and record simulator benchmarks")
	}
	// Prepare every workload up front so the recorded numbers measure the
	// simulator, not the one-time assemble/emulate/analyze of cold caches.
	for _, name := range speculate.AllWorkloadNames() {
		if _, err := speculate.Load(name); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(f func(*testing.B)) benchEntry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
		return benchEntry{
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	rec := benchRecord{
		Label: *benchLabel,
		Date:  time.Now().UTC().Format("2006-01-02"),
		Go:    runtime.Version(),
		Host: benchHost{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOARCH:     runtime.GOARCH,
		},
		Benchmarks: map[string]benchEntry{
			"SimulatorThroughput":         measure(BenchmarkSimulatorThroughput),
			"SimulatorThroughputPolyFlow": measure(BenchmarkSimulatorThroughputPolyFlow),
			"Figure9":                     measure(BenchmarkFigure9),
			"KernelsGrid":                 measure(BenchmarkKernelsGrid),
			"TraceReplay":                 measure(BenchmarkTraceReplay),
			"GridPerCell":                 measure(BenchmarkGridPerCell),
			"GridBatched":                 measure(BenchmarkGridBatched),
		},
		KernelsPostdomsSpeedupPct: kernelsSpeedups(t),
	}

	const path = "BENCH_simulator.json"
	var hist benchHistory
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &hist); err != nil {
			t.Fatalf("corrupt %s: %v", path, err)
		}
	}
	raw, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	hist.History = append(hist.History, raw)
	// No HTML escaping: re-encoding must leave earlier entries' labels
	// byte-identical ("->" would otherwise become "-\u003e").
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&hist); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %+v", rec)
}

// kernelsSpeedups runs the kernels-family policy grid once and extracts
// each kernel's postdoms speedup over the superscalar baseline.
func kernelsSpeedups(t *testing.T) map[string]float64 {
	tab, err := harness.Figure9Opts(harness.Options{Family: "kernels"})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := tab.PolicyRow("postdoms")
	if !ok {
		t.Fatal("kernels grid has no postdoms column")
	}
	out := make(map[string]float64, len(tab.Benches))
	for i, name := range tab.Benches {
		out[name] = row[i]
	}
	return out
}
