package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// specFile is the benchmark definition, at the root of the checkout the
// benchmark runs from.
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length, and the metrics each mode prints in its last line with their
// units (and, end to end, the bounds compare mode applies).
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if spec.RunSeconds < 1 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds, end_to_end and per_layer", path)
	}
	return &spec, nil
}

// fillMissing reports 0 for every listed metric the run did not measure:
// a workload that never calls a layer.
func fillMissing(m metrics, names []specMetric) {
	for _, n := range names {
		if _, ok := m[n.Name]; !ok {
			m.set(n.Name, 0, n.Unit)
		}
	}
}

// window collects one timed window's ops. Safe for concurrent use.
type window struct {
	mu        sync.Mutex
	wall      time.Duration
	all       []float64 // latency of every completed op, ms
	hits      []float64 // ops served from stored state
	misses    []float64 // ops that computed
	attempted int
	failed    int
	errs      []string // first few failure messages

	// peakReset says the peak resident set was reset before the window;
	// peakMB is then the peak over its first pass (see passDone).
	peakReset bool
	peakMB    float64
}

// passDone marks the end of a pass. After the first, it reads the peak
// resident set: the memory one whole pass holds, from a fixed amount of
// work, so that it does not grow with the number of passes a fast host
// fits into the window.
func (w *window) passDone() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.peakReset && w.peakMB == 0 {
		w.peakMB = vmHWM()
	}
}

// op records one completed op; split ops are classified as a hit or miss.
func (w *window) op(ms float64, split, hit bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.all = append(w.all, ms)
	if split {
		if hit {
			w.hits = append(w.hits, ms)
		} else {
			w.misses = append(w.misses, ms)
		}
	}
}

// fail records a failed op: an error or a failed correctness check.
func (w *window) fail(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.failed++
	if len(w.errs) < 10 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w *window) opsPerS() float64 { return float64(len(w.all)) / w.wall.Seconds() }

func (w *window) failedFrac() float64 {
	if w.attempted == 0 {
		return 0
	}
	return float64(w.failed) / float64(w.attempted)
}

// splitExtras adds the hit/miss latency split of w.
func splitExtras(m metrics, w *window) {
	m.set("hit_ms_p50", percentile(w.hits, 0.50), "ms")
	m.set("hit_ms_p90", percentile(w.hits, 0.90), "ms")
	m.set("miss_ms_p50", percentile(w.misses, 0.50), "ms")
	m.set("miss_ms_p90", percentile(w.misses, 0.90), "ms")
}

// percentile is the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the middle value of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSample is a snapshot of the runtime's CPU accounting and GC count.
type cpuSample struct {
	gc, total, idle float64
	cycles          uint64
}

func readCPU() cpuSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != rtmetrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	var cycles uint64
	if s[3].Value.Kind() == rtmetrics.KindUint64 {
		cycles = s[3].Value.Uint64()
	}
	return cpuSample{gc: val(0), total: val(1), idle: val(2), cycles: cycles}
}

// gcFracSince is the share of busy CPU time spent in GC since c0. The
// runtime updates its CPU classes only when a GC ends, so this covers c0's
// last GC to c's last GC, and is 0 when no GC ended in between (the cycle
// count then says so).
func (c cpuSample) gcFracSince(c0 cpuSample) float64 {
	busy := (c.total - c0.total) - (c.idle - c0.idle)
	if busy <= 0 {
		return 0
	}
	return (c.gc - c0.gc) / busy
}

// recordVersion tags full-record lines for compare mode.
const recordVersion = 1

// record is the full result of one run: the host fingerprint and every
// applicable metric. It is printed on the line before the last.
type record struct {
	Perfbench int            `json:"perfbench"`
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     int            `json:"trace"`
	Host      host           `json:"host"`
	SetupS    []float64      `json:"setup_s"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Counts    map[string]int `json:"counts"`
	Metrics   metrics        `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// host fingerprints the measuring machine and the measured code. Results
// are compared only when Machine matches; Commit and SourceSHA name what
// was measured.
type host struct {
	Machine   string `json:"machine"`
	Commit    string `json:"commit"`
	SourceSHA string `json:"source_sha256"`
}

func (h host) String() string {
	return fmt.Sprintf("%s commit=%s source=%.12s", h.Machine, h.Commit, h.SourceSHA)
}

func fingerprint() host {
	return host{
		Machine: fmt.Sprintf("cpus=%d gomaxprocs=%d %s/%s %s cpu=%q",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version(), cpuModel()),
		Commit:    commit(),
		SourceSHA: sourceSHA("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as stamped by the
// go command ("unknown" when built outside a repository, "+dirty" when the
// tree had local changes).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceSHA digests every Go source and module file under root (skipping
// dot-directories such as build outputs), so results from a checkout that
// is not a repository still name the code they measured.
func sourceSHA(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	h := sha256.New() // WalkDir visits in lexical order, so the digest is stable
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
