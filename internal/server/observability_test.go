package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestJobTraceAndSpans covers the span pipeline end to end: a
// caller-supplied trace ID survives the X-Polyflow-Trace header, the job's
// status carries it, queue_wait and runner-side spans land in the trace,
// and both spans formats serve valid JSON.
func TestJobTraceAndSpans(t *testing.T) {
	runner := func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		end := obs.StartSpan(ctx, "simulate")
		end.End("cycles", "42")
		return []byte(`{}`), false, nil
	}
	_, c := newTestServer(t, Config{Runner: runner})
	ctx := obs.With(context.Background(), obs.NewTrace("trace-test-1"))
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != "trace-test-1" {
		t.Fatalf("trace ID = %q, want the header-supplied one", st.TraceID)
	}
	if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ex, err := c.Spans(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ex.TraceID != "trace-test-1" {
		t.Fatalf("export trace ID = %q", ex.TraceID)
	}
	names := map[string]bool{}
	for _, sp := range ex.Spans {
		names[sp.Name] = true
	}
	if !names["queue_wait"] || !names["simulate"] {
		t.Fatalf("spans = %+v, want queue_wait and simulate", ex.Spans)
	}
	// Default format is Chrome trace-event JSON.
	var chrome []byte
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/spans", nil, &chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome spans not JSON: %v", err)
	}
	if len(doc.TraceEvents) < 3 { // process_name + thread_name + spans
		t.Fatalf("chrome events = %d", len(doc.TraceEvents))
	}
}

// TestSubmitWithoutTraceHeader pins the untraced-client path: no header is
// sent (the client adds none for an untraced context) and the server mints
// its own valid ID.
func TestSubmitWithoutTraceHeader(t *testing.T) {
	var gotHeader string
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte(`{}`), nil)})
	// Capture the header with a transport wrapper.
	base := c.HTTP.Transport
	c.HTTP.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodPost {
			gotHeader = r.Header.Get(obs.TraceHeader)
		}
		if base != nil {
			return base.RoundTrip(r)
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	st, _, err := c.Submit(context.Background(), Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	if gotHeader != "" {
		t.Fatalf("untraced context sent header %q", gotHeader)
	}
	if !obs.ValidID(st.TraceID) {
		t.Fatalf("server-minted trace ID invalid: %q", st.TraceID)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestReadyzLifecycle drives the readiness probe through its two states:
// ready from the start, then 503 once draining.
func TestReadyzLifecycle(t *testing.T) {
	s, c := newTestServer(t, Config{Runner: stubRunner([]byte(`{}`), nil)})
	ctx := context.Background()
	if !c.Healthy(ctx) {
		t.Fatal("new server is not healthy")
	}
	if !c.Ready(ctx) {
		t.Fatal("new server is not ready")
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Ready(ctx) {
		t.Fatal("draining server reports ready")
	}
}

// TestMetricsPrometheus scrapes the exposition endpoint after one job and
// validates it with the same checker CI uses: per-endpoint latency and the
// queue_wait phase histogram must be present and well-formed.
func TestMetricsPrometheus(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte(`{}`), nil)})
	ctx := context.Background()
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	if _, err := c.do(ctx, http.MethodGet, "/metrics?format=prometheus", nil, &raw); err != nil {
		t.Fatal(err)
	}
	err = telemetry.CheckExposition(bytes.NewReader(raw),
		"server_jobs_submitted", "server_http_latency_ms", "server_phase_queue_wait_ms", "pool_workers")
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, raw)
	}
	if !strings.Contains(string(raw), `server_http_latency_ms_bucket{route="POST /v1/jobs",le="+Inf"}`) {
		t.Fatalf("per-route latency series missing:\n%s", raw)
	}
	// The default summary still works and is unchanged in shape.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "server.jobs.submitted") {
		t.Fatalf("summary lost its counters: %s", text)
	}
}

// TestStructuredLogging wires a JSON logger and asserts submit/finish
// records carry the joining IDs.
func TestStructuredLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lock := lockedWriter{mu: &mu, w: &buf}
	logger := slog.New(slog.NewJSONHandler(lock, nil))
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte(`{}`), nil), Logger: logger})
	ctx := obs.With(context.Background(), obs.NewTrace("log-trace-7"))
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		out := buf.String()
		mu.Unlock()
		if strings.Contains(out, "job finished") {
			if !strings.Contains(out, `"trace_id":"log-trace-7"`) || !strings.Contains(out, `"job_id":"`+st.ID+`"`) {
				t.Fatalf("log records lack joining IDs:\n%s", out)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no finish record logged:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestConcurrentSSESubscribers is a race guard: several
// subscribers share one job's stream, one disconnects mid-flight, and every
// surviving subscriber still observes the terminal state event last.
func TestConcurrentSSESubscribers(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	runner := func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		close(started)
		progress(100, 50)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		progress(200, 120)
		return []byte(`{}`), false, nil
	}
	_, c := newTestServer(t, Config{Runner: runner})
	ctx := context.Background()
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	const subs = 4
	type streamResult struct {
		canceled bool
		events   []string
		err      error
	}
	results := make(chan streamResult, subs)
	cancelCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		streamCtx := ctx
		canceled := i == 0 // this one drops mid-stream
		if canceled {
			streamCtx = cancelCtx
		}
		wg.Add(1)
		go func(sctx context.Context, canceled bool) {
			defer wg.Done()
			res := streamResult{canceled: canceled}
			res.events, res.err = sseEvents(sctx, c.Base, st.ID)
			results <- res
		}(streamCtx, canceled)
	}
	// Let the subscribers attach, drop one, then finish the job.
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(gate)
	wg.Wait()
	close(results)

	for res := range results {
		if res.canceled {
			continue // dropped by design; must not disturb the others
		}
		if res.err != nil {
			t.Fatalf("surviving subscriber errored: %v", res.err)
		}
		if len(res.events) == 0 {
			t.Fatal("surviving subscriber saw no events")
		}
		last := res.events[len(res.events)-1]
		var fin Status
		event, data, _ := strings.Cut(last, " ")
		if event != "state" || json.Unmarshal([]byte(data), &fin) != nil || fin.State != "succeeded" {
			t.Fatalf("subscriber ended on %q, want terminal state event", last)
		}
	}
}

// TestObservabilityOffIsIdenticalServerPath extends the telemetry
// off-guard to the service layer: the same request through a fully
// instrumented server (logger + traced client) and a bare one yields
// byte-identical artifacts.
func TestObservabilityOffIsIdenticalServerPath(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	run := func(cfg Config, ctx context.Context) []byte {
		_, c := newTestServer(t, cfg)
		st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != "succeeded" {
			t.Fatalf("state = %q (%s)", fin.State, fin.Error)
		}
		raw, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	logger := slog.New(slog.NewJSONHandler(&bytes.Buffer{}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	instrumented := run(Config{Logger: logger}, obs.With(context.Background(), obs.NewTrace("off-guard")))
	bare := run(Config{}, context.Background())
	if !bytes.Equal(instrumented, bare) {
		t.Fatal("observability changed the artifact bytes")
	}
}
