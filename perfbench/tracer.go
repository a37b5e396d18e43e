package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the traced run's spans in memory: one obs.Trace whose
// spans each carry the op they belong to and their parent span's name,
// written once at exit through the obs Chrome exporter. Every span is a
// call the benchmark itself makes into a layer's public function; the
// lane (recorded as the span's host) is the benchmark goroutine, so each
// worker gets its own Perfetto track. Alongside the spans it keeps a
// per-name aggregate (calls, time, a summed quantity) that the per-layer
// metrics read.
type tracer struct {
	tr *obs.Trace

	mu  sync.Mutex
	agg map[string]*spanAgg
}

type spanAgg struct {
	calls int
	total time.Duration
	qty   float64 // summed quantity (instructions, bytes) given at End
}

func newTracer() *tracer {
	return &tracer{tr: obs.NewTrace("perfbench"), agg: map[string]*spanAgg{}}
}

// span is one open span; the zero value (from a nil tracer) is inert.
type span struct {
	t      *tracer
	lane   string
	op     int64
	parent string
	name   string
	start  time.Time
}

// start opens a span on a nil-safe tracer.
func (t *tracer) start(lane string, op int64, parent, name string) span {
	if t == nil {
		return span{}
	}
	return span{t: t, lane: lane, op: op, parent: parent, name: name, start: time.Now()}
}

// end records the span with a quantity for the aggregate (0 for none).
func (s span) end(qty float64) {
	if s.t == nil {
		return
	}
	s.t.record(obs.Span{
		Name: s.name, Host: s.lane, Start: s.start, End: time.Now(),
		Attrs: map[string]string{"op": strconv.FormatInt(s.op, 10), "parent": s.parent},
	}, qty)
}

// record stores a finished span and folds it into its name's aggregate.
func (t *tracer) record(sp obs.Span, qty float64) {
	t.tr.Record(sp)
	t.fold(sp.Name, sp.Duration(), qty)
}

// fold adds one call to a name's aggregate without recording a span.
func (t *tracer) fold(name string, d time.Duration, qty float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.calls++
	a.total += d
	a.qty += qty
}

// stat returns the aggregate of one span name.
func (t *tracer) stat(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

func (t *tracer) count() int { return len(t.tr.Spans()) }

// meanMS is the mean span duration in milliseconds (0 for no calls).
func (a spanAgg) meanMS() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.total.Microseconds()) / 1000 / float64(a.calls)
}

// writeChrome writes every span as Chrome trace-event JSON, in start
// order (spans are recorded as they end).
func (t *tracer) writeChrome(path string) error {
	spans := t.tr.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	sorted := obs.NewTrace(t.tr.ID())
	for _, sp := range spans {
		sorted.Record(sp)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sorted.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// lane names the benchmark goroutine a span ran on.
func lane(i int) string { return "perfbench/worker-" + strconv.Itoa(i) }

// layerSpans maps per-layer metrics to the span names whose mean duration
// they report. Span names are the public functions the benchmark calls.
var layerSpans = []struct{ metric, span string }{
	{"workloads.assemble_ms", "workloads.Workload.Assemble"},
	{"emu.run_ms", "emu.Run"},
	{"emu.check_ms", "emu.CheckOS"},
	{"core.analyze_ms", "core.Analyze"},
	{"trace.deps_ms", "trace.Trace.ComputeDeps"},
	{"tracestore.encode_ms", "tracestore.Encode"},
	{"artifact.put_ms", "artifact.Cache.Put"},
	{"artifact.open_ms", "artifact.Cache.Open"},
	{"tracestore.decode_ms.eager", "tracestore.Decode"},
	{"tracestore.decode_ms.lazy", "tracestore.Reader.Load"},
	{"core.decode_analysis_ms", "core.DecodeAnalysis"},
	{"machine.run_ms.superscalar", "machine.run.superscalar"},
	{"machine.run_ms.static", "machine.run.static"},
	{"machine.run_ms.rec_pred", "machine.run.rec_pred"},
	{"machine.fixed_ms", "machine.RunContext.fixed"},
	{"server.submit_ms", "server.Client.Submit"},
	{"server.result_ms", "server.Client.ResultBytes"},
	{"server.queue_wait_ms", "polyflowd.queue_wait"},
	{"server.cache_lookup_ms", "polyflowd.cache_lookup"},
	{"server.simulate_ms", "polyflowd.simulate"},
	{"server.artifact_encode_ms", "polyflowd.artifact_encode"},
	{"artifact.key_ms", "artifact.NewSimKey"},
	{"artifact.decode_sim_ms", "artifact.DecodeSim"},
}

// layerMetrics fills the span-derived per-layer metrics that any workload
// may produce. A layer with no spans is left for fillMissing.
func layerMetrics(m metrics, t *tracer) {
	for _, ls := range layerSpans {
		if a := t.stat(ls.span); a.calls > 0 {
			m.set(ls.metric, a.meanMS(), "ms")
		}
	}
	if a := t.stat("emu.Run"); a.calls > 0 {
		m.set("emu.minstr_per_s", a.qty/a.total.Seconds()/1e6, "Minstr/s")
	}
	if a := t.stat("tracestore.Encode"); a.calls > 0 {
		m.set("tracestore.trace_bytes", a.qty/float64(a.calls), "bytes")
	}
	eager, lazy := t.stat("tracestore.Decode"), t.stat("tracestore.Reader.Load")
	if d := (eager.total + lazy.total).Seconds(); d > 0 {
		m.set("tracestore.decode_mb_per_s", (eager.qty+lazy.qty)/d/1e6, "MB/s")
	}
}
