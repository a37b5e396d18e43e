// Package harness regenerates every table and figure of the paper's
// evaluation section as text tables: Figure 5 (static spawn-type
// distribution), Figure 8 (pipeline parameters), Figure 9 (individual
// heuristic policies), Figure 10 (heuristic combinations), Figure 11
// (leave-one-category-out losses), and Figure 12 (dynamic reconvergence
// prediction). See EXPERIMENTS.md for paper-vs-measured comparisons.
package harness

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/artifact"
	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/jobqueue"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Options narrows and instruments a figure run. The zero value reproduces
// the full figure with no telemetry, exactly as the paper tables.
type Options struct {
	// Benches restricts the grid to the named workloads (figure order is
	// kept); empty means all of them.
	Benches []string
	// Family selects the base workload pool: "synthetic" (the default
	// twelve), "kernels", etc. — see speculate.WorkloadFamilies. Empty
	// keeps the synthetic default, except that explicitly named Benches
	// resolve across every family, so a mixed -bench list needs no flag.
	Family string
	// Policies restricts the columns to the named policies; empty means
	// all of them. For Figure 11 this filters the exclusion columns (the
	// postdoms reference always runs — the loss metric needs it).
	Policies []string
	// TraceDir, when non-empty, attaches a telemetry Collector to every
	// simulated cell and writes <bench>_<policy>.trace.json (Chrome
	// trace-event JSON, loadable in Perfetto) plus
	// <bench>_<policy>.metrics.txt into the directory, creating it if
	// needed. Tracing needs a live run, so it bypasses the artifact cache.
	TraceDir string
	// AttribDir, when non-empty, writes each PolyFlow cell's per-spawn-site
	// attribution report — the verified one every sim artifact embeds — as
	// <bench>_<policy>.attrib.json into the directory (the polystat
	// report/diff input), creating it if needed.
	AttribDir string
	// Context cancels the grid: cells abort promptly when it expires.
	// Nil means context.Background().
	Context context.Context
	// Cache, when non-nil, memoizes each cell's simulation in the
	// content-addressed artifact cache: hits skip the run entirely and
	// decode the stored result (byte-identical to a fresh run; see
	// internal/artifact). Cells that export traces bypass it.
	Cache *artifact.Cache
	// TraceCache, when non-nil, backs benchmark preparation with stored
	// polyflow-trace/1 artifacts (internal/tracestore): each workload's
	// trace is fetched or emulated once and every policy column replays
	// the shared immutable trace. Nil falls back to Cache, so one
	// -cache-dir serves both artifact kinds.
	TraceCache *artifact.Cache
	// Remote, when non-nil, executes every cell on a remote polyflowd (a
	// single daemon or a cluster coordinator) instead of simulating
	// locally: benchmark preparation is skipped — the serving side owns
	// the traces — and each cell becomes a submitted job whose stored sim
	// artifact is decoded into the table, byte-identical to a local run.
	// TraceDir is incompatible with Remote (telemetry needs a live local
	// run); AttribDir works, fed from the artifact's embedded report.
	Remote *server.Client
	// SpawnMask, when non-nil and non-empty, suppresses the masked spawn
	// sites in every PolyFlow cell of the grid (the superscalar baseline
	// has no spawns and runs unmasked), locally or remotely. This is how a
	// polytune-found mask is replayed across the figure tables:
	// `experiments -mask "$(polytune best ...)"`. Masked cells have their
	// own artifact-cache identities, so tuned and untuned grids coexist in
	// one cache.
	SpawnMask *machine.SpawnMask
	// Logger receives structured per-cell records for remote grids (job
	// IDs, trace IDs, retries); nil disables logging.
	Logger *slog.Logger
}

// traceCache returns the cache backing benchmark preparation.
func (o Options) traceCache() *artifact.Cache {
	if o.TraceCache != nil {
		return o.TraceCache
	}
	return o.Cache
}

// ctx returns the grid context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func matches(filter []string, name string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

func (o Options) wantBench(name string) bool  { return matches(o.Benches, name) }
func (o Options) wantPolicy(name string) bool { return matches(o.Policies, name) }

// collector returns a fresh per-cell Collector, or nil when tracing is off.
func (o Options) collector() *telemetry.Collector {
	if o.TraceDir == "" {
		return nil
	}
	return telemetry.NewCollector(telemetry.Config{TraceEvents: telemetry.DefaultTraceEvents})
}

// writeTrace writes one cell's trace and metrics files under o.TraceDir.
func (o Options) writeTrace(bench, policy string, col *telemetry.Collector, res machine.Result) error {
	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(o.TraceDir, fileToken(bench)+"_"+fileToken(policy))
	tf, err := os.Create(stem + ".trace.json")
	if err != nil {
		return err
	}
	werr := col.WriteChromeTrace(tf, res.Config)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	mf, err := os.Create(stem + ".metrics.txt")
	if err != nil {
		return err
	}
	werr = col.WriteSummary(mf)
	if cerr := mf.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeAttrib writes one cell's attribution report under o.AttribDir.
func (o Options) writeAttrib(bench, policy string, rep *attrib.Report) error {
	if err := os.MkdirAll(o.AttribDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(o.AttribDir, fileToken(bench)+"_"+fileToken(policy))
	return rep.WriteFile(stem + ".attrib.json")
}

// pool returns an ephemeral scheduling pool, sized to GOMAXPROCS, for a
// batch of at most depth jobs; the caller must Close it. Remote grids
// oversubscribe the worker count: a remote cell blocks its pool worker on
// HTTP I/O, not on a CPU, so GOMAXPROCS-sized pools would serialize the
// fan-out.
func (o Options) pool(depth int) *jobqueue.Pool {
	workers := 0
	if o.Remote != nil {
		workers = 16
	}
	return jobqueue.New(jobqueue.Config{Workers: workers, QueueDepth: depth, BaseContext: o.ctx()})
}

// runCell runs one (bench, column) cell. Remote grids run it as a
// polyflowd job (Client.Run) and local grids through speculate.RunCell,
// the one cell path polyflowd, polyflow and the tuner share (o.Cache may
// be nil; a cell with a trace collector is simulated live). Both decode
// the same sim artifact, so local and remote, cached and uncached grids
// are byte-identical.
func (o Options) runCell(ctx context.Context, b *speculate.Bench, colName string) (machine.Result, error) {
	var (
		data []byte
		col  *telemetry.Collector
		err  error
	)
	if o.Remote != nil {
		if o.TraceDir != "" {
			return machine.Result{}, errors.New("harness: -trace-dir needs a live local run, not a remote grid")
		}
		req := server.Request{Bench: b.Name, Policy: colName}
		if o.SpawnMask.Len() > 0 && colName != "superscalar" {
			req.SpawnMask = o.SpawnMask.Encode()
		}
		var st server.Status
		data, st, err = o.Remote.Run(ctx, req)
		if o.Logger != nil {
			o.Logger.Debug("remote cell finished", "component", "harness",
				"bench", b.Name, "policy", colName, "job_id", st.ID, "trace_id", st.TraceID, "state", st.State)
		}
	} else {
		col = o.collector()
		data, _, err = speculate.RunCell(ctx, b, o.Cache, colName, o.SpawnMask, 0, nil, col)
	}
	if err != nil {
		return machine.Result{}, err
	}
	art, err := artifact.DecodeSim(data)
	if err != nil {
		return machine.Result{}, fmt.Errorf("decoding %s/%s: %w", b.Name, colName, err)
	}
	if col != nil {
		if err := o.writeTrace(b.Name, colName, col, art.Result); err != nil {
			return machine.Result{}, err
		}
	}
	if o.AttribDir != "" {
		if art.Attrib == nil {
			return machine.Result{}, fmt.Errorf("artifact for %s/%s carries no attribution report", b.Name, colName)
		}
		if err := o.writeAttrib(b.Name, colName, art.Attrib); err != nil {
			return machine.Result{}, err
		}
	}
	return art.Result, nil
}

// fileToken makes a bench/policy name safe as a filename component
// ("postdoms - loopFT" -> "postdoms-loopFT").
func fileToken(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_':
			return r
		default:
			return '-'
		}
	}, strings.ReplaceAll(name, " - ", "-"))
}

// benchesNamed returns the named benchmarks (all of o's family when names
// is empty) in figure order, preparing them in parallel on o's scheduling
// pool.
func benchesNamed(o Options, names []string) ([]*speculate.Bench, error) {
	all := speculate.WorkloadNames()
	if o.Family != "" {
		if all = speculate.FamilyWorkloadNames(o.Family); all == nil {
			return nil, fmt.Errorf("harness: unknown workload family %q (have %v)", o.Family, speculate.WorkloadFamilies())
		}
	} else if len(names) > 0 {
		// Explicit names resolve across every family.
		all = speculate.AllWorkloadNames()
	}
	var wanted []string
	for _, name := range all {
		if matches(names, name) {
			wanted = append(wanted, name)
		}
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("harness: no benchmark matches %q (have %v)", names, all)
	}
	if o.Remote != nil {
		// The serving side owns trace preparation; the grid only needs the
		// names. Baseline IPCs come from the decoded remote results.
		out := make([]*speculate.Bench, len(wanted))
		for i, name := range wanted {
			out[i] = &speculate.Bench{Name: name}
		}
		return out, nil
	}
	out := make([]*speculate.Bench, len(wanted))
	errs := make([]error, len(wanted))
	pool := o.pool(len(wanted))
	defer pool.Close()
	handles := make([]*jobqueue.Handle, len(wanted))
	for i, name := range wanted {
		i, name := i, name
		h, err := pool.SubmitWait(o.ctx(), jobqueue.Job{
			ID: "prepare/" + name,
			Fn: func(ctx context.Context) error {
				b, _, err := speculate.LoadCached(name, o.traceCache())
				if err != nil {
					return err
				}
				out[i] = b
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	for i, h := range handles {
		if err := h.Wait(context.Background()); err != nil {
			errs[i] = fmt.Errorf("job %s: %w", h.ID(), err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// runGrid simulates every (bench, column) pair as jobs on an ephemeral
// scheduling pool (see Options.pool); colNames label the columns in
// errors. run must be goroutine-safe across distinct pairs.
// A worker runs cells to completion one after another, so machine.Run's
// pooled arenas settle at one per worker instead of churning through
// however many goroutines the grid is wide. Every failing cell is
// reported, labeled with its job ID — not just the first.
func runGrid(o Options, benches []*speculate.Bench, colNames []string,
	run func(ctx context.Context, b *speculate.Bench, col int) (machine.Result, error)) ([][]machine.Result, error) {

	cols := len(colNames)
	cells := len(benches) * cols
	res := make([][]machine.Result, len(benches))
	errs := make([]error, cells)
	for i := range res {
		res[i] = make([]machine.Result, cols)
	}
	pool := o.pool(cells)
	defer pool.Close()
	handles := make([]*jobqueue.Handle, cells)
	for k := 0; k < cells; k++ {
		k := k
		i, c := k/cols, k%cols
		b := benches[i]
		h, err := pool.SubmitWait(o.ctx(), jobqueue.Job{
			ID: "cell/" + b.Name + "/" + colNames[c],
			Fn: func(ctx context.Context) error {
				r, err := run(ctx, b, c)
				if err != nil {
					return err
				}
				res[i][c] = r
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		handles[k] = h
	}
	for k, h := range handles {
		if err := h.Wait(context.Background()); err != nil {
			errs[k] = fmt.Errorf("job %s: %w", h.ID(), err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// baselines runs the superscalar for every bench, in parallel. Baselines
// use the cache but never export observer files (matching the historical
// behavior of figure runs, whose trace/attrib exports cover the PolyFlow
// cells only).
func baselines(o Options, benches []*speculate.Bench) ([]machine.Result, error) {
	bo := o
	bo.TraceDir, bo.AttribDir = "", ""
	grid, err := runGrid(bo, benches, []string{"superscalar"},
		func(ctx context.Context, b *speculate.Bench, _ int) (machine.Result, error) {
			return bo.runCell(ctx, b, "superscalar")
		})
	if err != nil {
		return nil, err
	}
	out := make([]machine.Result, len(benches))
	for i := range grid {
		out[i] = grid[i][0]
	}
	return out, nil
}

// SpeedupTable is a policies × benchmarks speedup grid (percent over the
// superscalar), with the superscalar IPC per benchmark, as in Figures 9,
// 10 and 12.
type SpeedupTable struct {
	Title    string
	Benches  []string
	Policies []string
	BaseIPC  []float64
	// Speedup[p][b] is the percent speedup of policy p on bench b.
	Speedup [][]float64
	// Results[p][b] keeps the full machine results for deeper inspection.
	Results [][]machine.Result
	Base    []machine.Result
}

// Average returns the mean speedup of policy p across benchmarks.
func (t *SpeedupTable) Average(p int) float64 {
	var s float64
	for _, v := range t.Speedup[p] {
		s += v
	}
	return s / float64(len(t.Speedup[p]))
}

// PolicyRow returns the speedups of the named policy.
func (t *SpeedupTable) PolicyRow(name string) ([]float64, bool) {
	for i, p := range t.Policies {
		if p == name {
			return t.Speedup[i], true
		}
	}
	return nil, false
}

// Format renders the table with benchmarks as rows and policies as columns,
// plus an Average row — the textual equivalent of the paper's bar charts.
func (t *SpeedupTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-11s %7s", "bench", "ss-IPC")
	for _, p := range t.Policies {
		fmt.Fprintf(&b, " %*s", colWidth(p), p)
	}
	b.WriteByte('\n')
	for bi, name := range t.Benches {
		fmt.Fprintf(&b, "%-11s %7.2f", name, t.BaseIPC[bi])
		for pi, p := range t.Policies {
			fmt.Fprintf(&b, " %*.1f", colWidth(p), t.Speedup[pi][bi])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-11s %7s", "Average", "")
	for pi, p := range t.Policies {
		fmt.Fprintf(&b, " %*.1f", colWidth(p), t.Average(pi))
	}
	b.WriteByte('\n')
	return b.String()
}

func colWidth(name string) int {
	if len(name) < 8 {
		return 8
	}
	return len(name)
}

// speedupTable runs the named columns (static policies, "rec_pred") over
// the selected benchmarks.
func speedupTable(title string, columns []string, o Options) (*SpeedupTable, error) {
	var colNames []string
	for _, name := range columns {
		if o.wantPolicy(name) {
			colNames = append(colNames, name)
		}
	}
	if len(colNames) == 0 {
		return nil, fmt.Errorf("harness: no policy matches %q in %s", o.Policies, title)
	}
	benches, err := benchesNamed(o, o.Benches)
	if err != nil {
		return nil, err
	}
	base, err := baselines(o, benches)
	if err != nil {
		return nil, err
	}
	grid, err := runGrid(o, benches, colNames,
		func(ctx context.Context, b *speculate.Bench, c int) (machine.Result, error) {
			return o.runCell(ctx, b, colNames[c])
		})
	if err != nil {
		return nil, err
	}

	t := &SpeedupTable{Title: title}
	for i, b := range benches {
		t.Benches = append(t.Benches, b.Name)
		t.BaseIPC = append(t.BaseIPC, base[i].IPC)
	}
	t.Base = base
	for c, name := range colNames {
		t.Policies = append(t.Policies, name)
		row := make([]float64, len(benches))
		resRow := make([]machine.Result, len(benches))
		for i := range benches {
			row[i] = speculate.SpeedupPct(base[i], grid[i][c])
			resRow[i] = grid[i][c]
		}
		t.Speedup = append(t.Speedup, row)
		t.Results = append(t.Results, resRow)
	}
	return t, nil
}

// Figure9Opts evaluates the individual heuristic policies and full
// postdominator spawning, narrowed/instrumented by o.
func Figure9Opts(o Options) (*SpeedupTable, error) {
	return speedupTable(
		"Figure 9: Individual heuristic policies (speedup % over superscalar)",
		policyNames(core.IndividualPolicies()), o)
}

// Figure10Opts evaluates the heuristic combination policies against
// postdoms, narrowed/instrumented by o.
func Figure10Opts(o Options) (*SpeedupTable, error) {
	return speedupTable(
		"Figure 10: Combination heuristics (speedup % over superscalar)",
		policyNames(core.CombinationPolicies()), o)
}

// Figure12Opts evaluates dynamic reconvergence prediction against
// compiler-generated postdominators, narrowed/instrumented by o.
func Figure12Opts(o Options) (*SpeedupTable, error) {
	return speedupTable(
		"Figure 12: Reconvergence-predictor spawning vs compiler postdominators",
		[]string{"postdoms", "rec_pred"}, o)
}

// policyNames lists the policies' names, in order.
func policyNames(policies []core.Policy) []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name
	}
	return names
}

// LossTable is the Figure 11 result: per-benchmark loss in percent speedup
// (normalized to superscalar IPC) when one spawn category is excluded.
type LossTable struct {
	Benches    []string
	Exclusions []string
	// Loss[e][b] = (IPC_postdoms - IPC_excluded) / IPC_superscalar * 100.
	Loss [][]float64
}

// Average returns the mean loss for exclusion e.
func (t *LossTable) Average(e int) float64 {
	var s float64
	for _, v := range t.Loss[e] {
		s += v
	}
	return s / float64(len(t.Loss[e]))
}

// Format renders the loss table.
func (t *LossTable) Format() string {
	var b strings.Builder
	b.WriteString("Figure 11: Loss in speedup vs full postdominator set (normalized to superscalar IPC)\n")
	fmt.Fprintf(&b, "%-11s", "bench")
	for _, e := range t.Exclusions {
		fmt.Fprintf(&b, " %*s", colWidth(e), e)
	}
	b.WriteByte('\n')
	for bi, name := range t.Benches {
		fmt.Fprintf(&b, "%-11s", name)
		for ei, e := range t.Exclusions {
			fmt.Fprintf(&b, " %*.1f", colWidth(e), t.Loss[ei][bi])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-11s", "Average")
	for ei, e := range t.Exclusions {
		fmt.Fprintf(&b, " %*.1f", colWidth(e), t.Average(ei))
	}
	b.WriteByte('\n')
	return b.String()
}

// Figure11Opts measures the loss from excluding each spawn category,
// narrowed/instrumented by o. The policy filter
// selects exclusion columns; the postdoms reference always runs because
// the loss metric is relative to it.
func Figure11Opts(o Options) (*LossTable, error) {
	benches, err := benchesNamed(o, o.Benches)
	if err != nil {
		return nil, err
	}
	base, err := baselines(o, benches)
	if err != nil {
		return nil, err
	}
	colNames := []string{core.PolicyPostdoms.Name}
	for _, p := range core.ExclusionPolicies() {
		if o.wantPolicy(p.Name) {
			colNames = append(colNames, p.Name)
		}
	}
	if len(colNames) == 1 {
		return nil, fmt.Errorf("harness: no exclusion policy matches %q in Figure 11", o.Policies)
	}
	grid, err := runGrid(o, benches, colNames,
		func(ctx context.Context, b *speculate.Bench, c int) (machine.Result, error) {
			return o.runCell(ctx, b, colNames[c])
		})
	if err != nil {
		return nil, err
	}
	t := &LossTable{}
	for _, b := range benches {
		t.Benches = append(t.Benches, b.Name)
	}
	for e := 1; e < len(colNames); e++ {
		t.Exclusions = append(t.Exclusions, colNames[e])
		row := make([]float64, len(benches))
		for i := range benches {
			row[i] = speculate.LossPct(base[i], grid[i][0], grid[i][e])
		}
		t.Loss = append(t.Loss, row)
	}
	return t, nil
}

// Fig5Row is one benchmark's static spawn-type distribution.
type Fig5Row struct {
	Bench  string
	Counts [core.NumKinds]int // KindLoop excluded from Total
	Total  int                // total static postdominator spawn points
}

// Figure5Opts computes the static distribution of control-equivalent
// task types per benchmark, restricted to o's benchmark selection. The
// figure is static analysis, so benchmarks are always prepared locally,
// even when o.Remote is set.
func Figure5Opts(o Options) ([]Fig5Row, error) {
	o.Remote = nil
	benches, err := benchesNamed(o, o.Benches)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, b := range benches {
		r := Fig5Row{Bench: b.Name}
		for _, s := range b.Analysis.Spawns {
			r.Counts[s.Kind]++
			if s.Kind != core.KindLoop {
				r.Total++
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// FormatFigure5 renders the distribution table with percentages, as in the
// paper's stacked bars (total static spawns shown per benchmark).
func FormatFigure5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5: Static distribution of control-equivalent task types\n")
	fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s %8s\n", "bench", "LoopFT%", "ProcFT%", "Hammock%", "Other%", "total")
	for _, r := range rows {
		pct := func(k core.Kind) float64 {
			if r.Total == 0 {
				return 0
			}
			return 100 * float64(r.Counts[k]) / float64(r.Total)
		}
		fmt.Fprintf(&b, "%-11s %8.1f %8.1f %8.1f %8.1f %8d\n", r.Bench,
			pct(core.KindLoopFT), pct(core.KindProcFT), pct(core.KindHammock), pct(core.KindOther), r.Total)
	}
	return b.String()
}

// Figure8 renders the pipeline parameter table.
func Figure8() string {
	return "Figure 8: Pipeline parameters\n" + machine.PolyFlowConfig().ParameterTable()
}
