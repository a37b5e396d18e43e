package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/server"
)

func TestFigure5(t *testing.T) {
	rows, err := Figure5Opts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("%s: no static spawns", r.Bench)
		}
		sum := r.Counts[core.KindLoopFT] + r.Counts[core.KindProcFT] +
			r.Counts[core.KindHammock] + r.Counts[core.KindOther]
		if sum != r.Total {
			t.Errorf("%s: counts %v do not sum to total %d", r.Bench, r.Counts, r.Total)
		}
	}
	out := FormatFigure5(rows)
	if !strings.Contains(out, "twolf") || !strings.Contains(out, "Hammock%") {
		t.Fatalf("Figure 5 formatting wrong:\n%s", out)
	}
}

// TestFigure5Family: Figure 5 honours Options.Family, and prepares its
// benchmarks locally even when a remote daemon is configured (the figure is
// static analysis; the unreachable Remote must never be contacted).
func TestFigure5Family(t *testing.T) {
	rows, err := Figure5Opts(Options{Family: "kernels", Remote: &server.Client{Base: "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Bench)
	}
	want := speculate.FamilyWorkloadNames("kernels")
	if len(want) == 0 || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rows = %v, want the kernels family %v", got, want)
	}
}

func TestFigure8(t *testing.T) {
	out := Figure8()
	if !strings.Contains(out, "Pipeline parameters") || !strings.Contains(out, "gshare") {
		t.Fatalf("Figure 8 wrong:\n%s", out)
	}
}

func TestSpeedupTableHelpers(t *testing.T) {
	tab := &SpeedupTable{
		Title:    "t",
		Benches:  []string{"a", "b"},
		Policies: []string{"p1", "p2"},
		BaseIPC:  []float64{1, 2},
		Speedup:  [][]float64{{10, 20}, {30, 50}},
	}
	if tab.Average(0) != 15 || tab.Average(1) != 40 {
		t.Fatalf("averages wrong")
	}
	if row, ok := tab.PolicyRow("p2"); !ok || row[1] != 50 {
		t.Fatalf("PolicyRow wrong")
	}
	if _, ok := tab.PolicyRow("zzz"); ok {
		t.Fatalf("missing policy found")
	}
	out := tab.Format()
	for _, want := range []string{"p1", "p2", "Average", "ss-IPC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestLossTableHelpers(t *testing.T) {
	lt := &LossTable{
		Benches:    []string{"a"},
		Exclusions: []string{"postdoms - loopFT"},
		Loss:       [][]float64{{12.5}},
	}
	if lt.Average(0) != 12.5 {
		t.Fatalf("loss average wrong")
	}
	if !strings.Contains(lt.Format(), "postdoms - loopFT") {
		t.Fatalf("loss format wrong")
	}
}

// TestFigure9EndToEnd runs the full Figure 9 sweep and checks the paper's
// headline claims hold in this reproduction:
//  1. control-equivalent spawning's average speedup is at least 1.2x the
//     best individual heuristic's average (paper: "more than double"),
//  2. per benchmark, postdoms is at worst modestly below the best
//     individual heuristic and usually above it.
func TestFigure9EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation sweep")
	}
	tab, err := Figure9Opts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	post, ok := tab.PolicyRow("postdoms")
	if !ok {
		t.Fatal("postdoms row missing")
	}
	postAvg := tab.Average(len(tab.Policies) - 1)
	bestIndivAvg := 0.0
	for pi, name := range tab.Policies {
		if name == "postdoms" {
			continue
		}
		if a := tab.Average(pi); a > bestIndivAvg {
			bestIndivAvg = a
		}
	}
	if postAvg < 1.2*bestIndivAvg {
		t.Errorf("postdoms average %.1f vs best heuristic %.1f: subsumption too weak",
			postAvg, bestIndivAvg)
	}
	for bi, bench := range tab.Benches {
		best := 0.0
		for pi, name := range tab.Policies {
			if name == "postdoms" || name == "loop" {
				continue
			}
			if v := tab.Speedup[pi][bi]; v > best {
				best = v
			}
		}
		// Postdoms must cover the best non-loop heuristic per benchmark
		// (small shortfalls from spawn interference are tolerated, as in
		// the paper's "less than 2%" caveat — we allow a wider band since
		// our magnitudes are larger).
		if post[bi] < best-12 {
			t.Errorf("%s: postdoms %.1f far below best heuristic %.1f", bench, post[bi], best)
		}
	}
	// Superscalar IPCs must be plausible.
	for bi, ipc := range tab.BaseIPC {
		if ipc < 0.3 || ipc > 4 {
			t.Errorf("%s: implausible superscalar IPC %.2f", tab.Benches[bi], ipc)
		}
	}
}

// TestFigure10CombinationsSubsumed runs the full Figure 10 sweep and
// checks that postdoms subsumes the heuristic combinations, as the paper
// claims ("at least as well as the best combination ... ~33% better on
// average; crafty and mcf stand out"):
//  1. postdoms's average speedup is at least 1.05x the best combination's,
//  2. per benchmark, postdoms is at most 5 points below its best
//     combination,
//  3. crafty beats its best combination by at least 20 points.
func TestFigure10CombinationsSubsumed(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation sweep")
	}
	tab, err := Figure10Opts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	post, ok := tab.PolicyRow("postdoms")
	if !ok {
		t.Fatal("postdoms row missing")
	}
	postAvg := tab.Average(len(tab.Policies) - 1)
	bestComboAvg := 0.0
	for pi, name := range tab.Policies {
		if name == "postdoms" {
			continue
		}
		if a := tab.Average(pi); a > bestComboAvg {
			bestComboAvg = a
		}
	}
	// Measured: 91.3 vs 84.9 for loop+procFT+loopFT, 1.075x (paper: ~1.33x).
	if postAvg < 1.05*bestComboAvg {
		t.Errorf("postdoms average %.1f vs best combination %.1f: subsumption too weak",
			postAvg, bestComboAvg)
	}
	sawCrafty := false
	for bi, bench := range tab.Benches {
		best := 0.0
		for pi, name := range tab.Policies {
			if name == "postdoms" {
				continue
			}
			if v := tab.Speedup[pi][bi]; v > best {
				best = v
			}
		}
		// Measured worst: parser at -3.8 (19.0 vs 22.8 for loop+loopFT);
		// gzip, mcf and perlbmk dip by 1.5 to 1.9.
		if post[bi] < best-5 {
			t.Errorf("%s: postdoms %.1f more than 5 points below best combination %.1f",
				bench, post[bi], best)
		}
		// Measured: crafty 79.4 vs 46.8, +32.6, the paper's named standout.
		if bench != "crafty" {
			continue
		}
		sawCrafty = true
		if post[bi] < best+20 {
			t.Errorf("crafty: postdoms %.1f leads best combination %.1f by under 20 points",
				post[bi], best)
		}
	}
	if !sawCrafty {
		t.Error("crafty missing from Figure 10")
	}
}

// TestFigure11SignatureLosses verifies the paper's signature per-benchmark
// sensitivities: vpr.route needs loopFT, vortex needs procFT, mcf needs
// hammocks, and perlbmk needs "other" spawns.
func TestFigure11SignatureLosses(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation sweep")
	}
	lt, err := Figure11Opts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := func(excl string) int {
		for i, e := range lt.Exclusions {
			if e == excl {
				return i
			}
		}
		t.Fatalf("exclusion %q missing", excl)
		return -1
	}
	bench := func(name string) int {
		for i, b := range lt.Benches {
			if b == name {
				return i
			}
		}
		t.Fatalf("bench %q missing", name)
		return -1
	}
	checks := []struct {
		excl, bench string
		minLoss     float64
	}{
		{"postdoms - loopFT", "vpr.route", 10},
		{"postdoms - procFT", "vortex", 30},
		{"postdoms - hammock", "mcf", 30},
		{"postdoms - others", "perlbmk", 20},
	}
	for _, c := range checks {
		got := lt.Loss[idx(c.excl)][bench(c.bench)]
		if got < c.minLoss {
			t.Errorf("%s on %s: loss %.1f, want >= %.1f", c.excl, c.bench, got, c.minLoss)
		}
	}
}

// TestFigure12RecPredApproximates: the dynamic reconvergence predictor must
// land within a reasonable fraction of compiler postdominators on average
// and track it closely on at least half the benchmarks.
func TestFigure12RecPredApproximates(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation sweep")
	}
	tab, err := Figure12Opts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	post, _ := tab.PolicyRow("postdoms")
	rec, ok := tab.PolicyRow("rec_pred")
	if !ok {
		t.Fatal("rec_pred row missing")
	}
	postAvg, recAvg := 0.0, 0.0
	close := 0
	for i := range post {
		postAvg += post[i]
		recAvg += rec[i]
		if rec[i] >= post[i]-15 {
			close++
		}
	}
	if recAvg < 0.5*postAvg {
		t.Errorf("rec_pred average %.1f too far below postdoms %.1f", recAvg/12, postAvg/12)
	}
	if close < 6 {
		t.Errorf("rec_pred tracks postdoms closely on only %d/12 benchmarks", close)
	}
}

func TestRunGridErrorContext(t *testing.T) {
	benches, err := benchesNamed(Options{}, []string{"twolf"})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	worse := errors.New("worse")
	_, err = runGrid(Options{}, benches, []string{"ok", "bad", "awful"},
		func(ctx context.Context, b *speculate.Bench, c int) (machine.Result, error) {
			switch c {
			case 1:
				return machine.Result{}, boom
			case 2:
				return machine.Result{}, worse
			}
			return machine.Result{}, nil
		})
	if err == nil {
		t.Fatal("error swallowed")
	}
	// Every failing cell is reported with its job ID, not just the first.
	if !errors.Is(err, boom) || !errors.Is(err, worse) {
		t.Fatalf("joined error lost a cause: %v", err)
	}
	for _, want := range []string{"job cell/twolf/bad", "job cell/twolf/awful"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing context %q", err, want)
		}
	}
}

func TestBenchesNamedUnknown(t *testing.T) {
	_, err := benchesNamed(Options{}, []string{"nonesuch"})
	if err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("unknown bench error = %v", err)
	}
}

func TestFigure9OptsFilter(t *testing.T) {
	tab, err := Figure9Opts(Options{Benches: []string{"twolf"}, Policies: []string{"postdoms"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Benches) != 1 || tab.Benches[0] != "twolf" {
		t.Fatalf("benches = %v, want [twolf]", tab.Benches)
	}
	if len(tab.Policies) != 1 || tab.Policies[0] != "postdoms" {
		t.Fatalf("policies = %v, want [postdoms]", tab.Policies)
	}
	if tab.Speedup[0][0] == 0 {
		t.Fatalf("filtered cell did not simulate")
	}
	if _, err := Figure9Opts(Options{Policies: []string{"nonesuch"}}); err == nil {
		t.Fatal("unknown policy filter should error")
	}
}

func TestFigureRunsThroughArtifactCache(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Benches: []string{"twolf"}, Policies: []string{"postdoms"}, Cache: cache}
	cold, err := Figure9Opts(o)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatalf("cold run recorded no cache misses: %+v", st)
	}
	warm, err := Figure9Opts(o)
	if err != nil {
		t.Fatal(err)
	}
	st2 := cache.Stats()
	if st2.Misses != st.Misses {
		t.Fatalf("warm run missed the cache: cold=%+v warm=%+v", st, st2)
	}
	if st2.MemHits+st2.DiskHits == 0 {
		t.Fatalf("warm run recorded no hits: %+v", st2)
	}
	if cold.Format() != warm.Format() {
		t.Fatalf("cached table differs from fresh:\n%s\nvs\n%s", cold.Format(), warm.Format())
	}
	if cold.Results[0][0].Stats != warm.Results[0][0].Stats {
		t.Fatal("cached machine result differs from fresh")
	}

	// Cached hits still materialize attribution reports on demand.
	dir := t.TempDir()
	o.AttribDir = dir
	if _, err := Figure9Opts(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "twolf_postdoms.attrib.json")); err != nil {
		t.Fatalf("attrib report not written from cache hit: %v", err)
	}
}

func TestFigure9OptsTraceDir(t *testing.T) {
	dir := t.TempDir()
	tab, err := Figure9Opts(Options{
		Benches:  []string{"twolf"},
		Policies: []string{"postdoms"},
		TraceDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Results[0][0].SpawnsTaken == 0 {
		t.Fatalf("traced run took no spawns; trace would be empty")
	}
	data, err := os.ReadFile(filepath.Join(dir, "twolf_postdoms.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dt struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			TS int64  `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &dt); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	last := int64(-1)
	slices := 0
	for _, e := range dt.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.TS < last {
			t.Fatalf("ts went backwards: %d after %d", e.TS, last)
		}
		last = e.TS
		if e.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatalf("no task slices in exported trace")
	}
	metrics, err := os.ReadFile(filepath.Join(dir, "twolf_postdoms.metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"machine.mispredicts", "machine.spawns_taken", "machine.task_lifetime_cycles"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics summary missing %q:\n%s", want, metrics)
		}
	}
}

func TestFileToken(t *testing.T) {
	for in, want := range map[string]string{
		"postdoms":          "postdoms",
		"postdoms - loopFT": "postdoms-loopFT",
		"vpr.place":         "vpr.place",
		"a b/c":             "a-b-c",
	} {
		if got := fileToken(in); got != want {
			t.Errorf("fileToken(%q) = %q, want %q", in, got, want)
		}
	}
}
