package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/attrib"
	"repro/internal/jobqueue"
)

// newTestServer builds a server over an httptest listener. A nil runner
// simulates for real.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// stubRunner returns canned bytes after an optional gate.
func stubRunner(data []byte, gate chan struct{}) Runner {
	return func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		return data, false, nil
	}
}

func TestSubmitLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte(`{"ok":true}`), nil)})
	ctx := context.Background()
	st, code, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d, want 202", code)
	}
	if st.ID == "" || st.Bench != "gzip" || st.Policy != "postdoms" {
		t.Fatalf("status = %+v", st)
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
	if string(raw) != `{"ok":true}` {
		t.Fatalf("result = %q", raw)
	}
	if list := listJobs(t, c); len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: stubRunner(nil, nil)})
	ctx := context.Background()
	if _, code, err := c.Submit(ctx, Request{Bench: "nonesuch", Policy: "postdoms"}); err == nil || code != http.StatusBadRequest {
		t.Fatalf("unknown bench: code=%d err=%v", code, err)
	}
	if _, code, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "nonesuch"}); err == nil || code != http.StatusBadRequest {
		t.Fatalf("unknown policy: code=%d err=%v", code, err)
	}
	if _, err := c.Status(ctx, "j999999-gzip-postdoms"); err == nil {
		t.Fatal("missing job did not 404")
	}
}

func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 1})
	_, c := newTestServer(t, Config{Pool: pool, Runner: stubRunner([]byte("x"), gate)})
	ctx := context.Background()

	// First job occupies the single worker, second the single queue slot.
	a, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, a.ID, "running")
	if _, _, err := c.Submit(ctx, Request{Bench: "mcf", Policy: "postdoms"}); err != nil {
		t.Fatal(err)
	}

	// The third submission must shed load with 429, not queue or block.
	_, code, err := c.Submit(ctx, Request{Bench: "twolf", Policy: "postdoms"})
	if err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("overload submit: code=%d err=%v", code, err)
	}
	close(gate)

	// Capacity freed: submissions are accepted again.
	if _, code, err = c.Submit(ctx, Request{Bench: "twolf", Policy: "postdoms"}); err != nil || code != http.StatusAccepted {
		t.Fatalf("post-drain submit: code=%d err=%v", code, err)
	}
}

// TestClientRunWaitsOut429: Run rides out a full queue instead of
// failing, returns the succeeded job's bytes with its terminal status, and
// turns a job that ends in any other state into an error.
func TestClientRunWaitsOut429(t *testing.T) {
	gate := make(chan struct{})
	pool := jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 1})
	_, c := newTestServer(t, Config{Pool: pool, Runner: stubRunner([]byte("x"), gate)})
	ctx := context.Background()
	a, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, a.ID, "running")
	if _, _, err := c.Submit(ctx, Request{Bench: "mcf", Policy: "postdoms"}); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(gate) })
	data, st, err := c.Run(ctx, Request{Bench: "twolf", Policy: "postdoms"})
	if err != nil {
		t.Fatalf("Run through a full queue: %v", err)
	}
	if string(data) != "x" || st.State != "succeeded" {
		t.Fatalf("Run = %q, state %q; want \"x\", succeeded", data, st.State)
	}

	failing := func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		return nil, false, errors.New("boom")
	}
	_, c = newTestServer(t, Config{Runner: failing})
	if _, st, err := c.Run(ctx, Request{Bench: "gzip", Policy: "postdoms"}); err == nil || st.State != "failed" {
		t.Fatalf("Run of a failing job: state %q, err %v; want failed and an error", st.State, err)
	}
}

// TestClientRunCancelsAbandonedJob: a Run whose context ends while its job
// runs cancels the job on the daemon rather than leaving it running.
func TestClientRunCancelsAbandonedJob(t *testing.T) {
	gate := make(chan struct{}) // never closed before cleanup: the job ends via ctx
	defer close(gate)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := mustServer(t, Config{Runner: stubRunner([]byte("x"), gate)})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			cancel() // Run polls only once its Submit succeeded; give up then
		}
		s.ServeHTTP(w, r)
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	if _, _, err := c.Run(ctx, Request{Bench: "gzip", Policy: "postdoms"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	jobs := listJobs(t, c)
	if len(jobs) != 1 {
		t.Fatalf("jobs = %+v; want one job", jobs)
	}
	waitState(t, c, jobs[0].ID, "canceled")
}

func TestCancelRunningJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte("x"), gate)})
	ctx := context.Background()
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, "running")
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "canceled" {
		t.Fatalf("state = %q", fin.State)
	}
	if _, err := c.ResultBytes(ctx, st.ID); err == nil {
		t.Fatal("canceled job served a result")
	}
}

// TestCancelDuringSubmit: a DELETE that races the submission of the job it
// names either finds no record (404) or cancels the job. It never answers
// 202 for a record whose pool handle is not yet set, which would cancel
// nothing and leave the job running.
func TestCancelDuringSubmit(t *testing.T) {
	gate := make(chan struct{}) // never closed before cleanup: jobs end via ctx
	defer close(gate)
	s, c := newTestServer(t, Config{Runner: stubRunner([]byte("x"), gate)})
	ctx := context.Background()
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("j%06d-gzip-postdoms", i)
		accepted := make(chan struct{})
		go func() {
			defer close(accepted)
			for {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
				if rec.Code == http.StatusAccepted {
					return
				}
			}
		}()
		st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != id {
			t.Fatalf("job ID = %q, want %q", st.ID, id)
		}
		<-accepted
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		fin, err := c.Wait(wctx, id, time.Millisecond)
		cancel()
		if err != nil || fin.State != "canceled" {
			t.Fatalf("job %s after a 202 DELETE: state %q, %v; want canceled", id, fin.State, err)
		}
	}
}

// doneWatch is a context that reports when a caller first selects on its
// Done channel — in the simulate path, the moment a job starts waiting on
// another job's in-flight computation of the same cell.
type doneWatch struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (d *doneWatch) Done() <-chan struct{} {
	d.once.Do(func() { close(d.waiting) })
	return d.Context.Done()
}

// TestCancelDoesNotFailSharedCell: two jobs for one uncached cell share a
// single simulation. Canceling the job that leads it must not cancel the
// other — that job's own context is live, so it simulates the cell itself.
func TestCancelDoesNotFailSharedCell(t *testing.T) {
	var s *Server
	var calls atomic.Int32
	simulating := make(chan struct{})
	follower := &doneWatch{waiting: make(chan struct{})}
	runner := func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		if calls.Add(1) == 1 {
			// The first job stalls mid-simulation until it is canceled.
			var once sync.Once
			progress = func(cycle, retired int64) {
				once.Do(func() {
					close(simulating)
					<-ctx.Done()
				})
			}
		} else {
			follower.Context = ctx
			ctx = follower
		}
		return s.simulate(ctx, req, progress)
	}
	var c *Client
	s, c = newTestServer(t, Config{Runner: runner})
	ctx := context.Background()
	req := Request{Bench: "gzip", Policy: "postdoms", SampleInterval: 1000}
	first, _, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-simulating
	second, _, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-follower.waiting
	if err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, first.ID, time.Millisecond); err != nil || fin.State != "canceled" {
		t.Fatalf("first job: %+v, %v; want canceled", fin, err)
	}
	fin, err := c.Wait(ctx, second.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "succeeded" {
		t.Fatalf("second job state = %q (%s), want succeeded", fin.State, fin.Error)
	}
}

func TestJobTimeout(t *testing.T) {
	gate := make(chan struct{}) // never closed: the job only ends via ctx
	defer close(gate)
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte("x"), gate)})
	ctx := context.Background()
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms", TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "canceled" {
		t.Fatalf("state = %q, want canceled (deadline)", fin.State)
	}
}

func TestDrainFlips503AndFinishesAccepted(t *testing.T) {
	gate := make(chan struct{})
	s, c := newTestServer(t, Config{Runner: stubRunner([]byte("x"), gate)})
	ctx := context.Background()
	if code := healthz(c); code != http.StatusOK {
		t.Fatalf("new server: healthz = %d, want 200", code)
	}
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, "running")

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, func() bool { return s.pool.Draining() }, "pool draining")

	// Draining: healthz degrades and submissions answer 503.
	if code := healthz(c); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server: healthz = %d, want 503", code)
	}
	if _, code, err := c.Submit(ctx, Request{Bench: "mcf", Policy: "postdoms"}); err == nil || code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: code=%d err=%v", code, err)
	}

	// The accepted job still completes and its result is served.
	close(gate)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "succeeded" {
		t.Fatalf("state after drain = %q", fin.State)
	}
	if raw, err := c.ResultBytes(ctx, st.ID); err != nil || string(raw) != "x" {
		t.Fatalf("result after drain = %q, %v", raw, err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte("x"), nil)})
	ctx := context.Background()
	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	text := metricsText(t, c)
	for _, want := range []string{
		"server.jobs.submitted", "server.jobs.succeeded", "pool.workers", "cache.misses",
		`server.http.latency_ms{route="POST /v1/jobs"}`, "server.phase.queue_wait_ms",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// sseEvents collects one job's SSE stream until it closes or ctx ends,
// each event as "<event> <data>". It returns errors rather than failing
// the test, so subscriber goroutines can call it.
func sseEvents(ctx context.Context, base, id string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("content-type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	var ev string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, ev+" "+strings.TrimPrefix(line, "data: "))
		}
	}
	return events, sc.Err()
}

func TestSSEStreamsStatesAndProgress(t *testing.T) {
	progressing := func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		for i := int64(1); i <= 3; i++ {
			progress(i*1000, i*500)
		}
		return []byte("x"), false, nil
	}
	hs := httptest.NewServer(mustServer(t, Config{Runner: progressing}))
	defer hs.Close()

	cl := &Client{Base: hs.URL}
	st, _, err := cl.Submit(context.Background(), Request{Bench: "gzip", Policy: "postdoms", SampleInterval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(context.Background(), st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The job is terminal: the stream replays the final state and closes.
	events, err := sseEvents(context.Background(), hs.URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if !strings.HasPrefix(last, "state ") || !strings.Contains(last, `"succeeded"`) {
		t.Fatalf("last event = %q, want terminal state", last)
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSSELiveProgress(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	runner := func(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
		close(started)
		<-release
		progress(1024, 512)
		progress(2048, 1024)
		return []byte("x"), false, nil
	}
	s := mustServer(t, Config{Runner: runner})
	hs := httptest.NewServer(s)
	defer hs.Close()
	cl := &Client{Base: hs.URL}
	st, _, err := cl.Submit(context.Background(), Request{Bench: "gzip", Policy: "postdoms", SampleInterval: 1024})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var events []string
	done := make(chan error, 1)
	go func() {
		var err error
		events, err = sseEvents(context.Background(), hs.URL, st.ID)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the subscriber attach while running
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var sawProgress, sawDone bool
	for _, ev := range events {
		if strings.HasPrefix(ev, "progress ") && strings.Contains(ev, `"cycle":2048`) {
			sawProgress = true
		}
		if strings.HasPrefix(ev, "state ") && strings.Contains(ev, `"succeeded"`) {
			sawDone = true
		}
	}
	if !sawProgress || !sawDone {
		t.Fatalf("events = %v (progress=%v done=%v)", events, sawProgress, sawDone)
	}
}

// TestRealSimulationMatchesGolden is the end-to-end check: submitting
// gzip/postdoms to a real (un-stubbed) server must produce the attribution
// report checked in as the repository golden, and a resubmission must be a
// cache hit serving byte-identical artifact bytes.
func TestRealSimulationMatchesGolden(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Cache: cache})
	ctx := context.Background()

	st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "succeeded" {
		t.Fatalf("state = %q (%s)", fin.State, fin.Error)
	}
	if fin.CacheHit {
		t.Fatal("cold job reported a cache hit")
	}
	var raw []byte
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/attrib", nil, &raw); err != nil {
		t.Fatal(err)
	}
	rep, err := attrib.ReadReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := attrib.ReadReportFile(filepath.Join("..", "..", "testdata", "attrib", "gzip_postdoms.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, goldenJSON := reportJSON(t, rep), reportJSON(t, golden)
	if gotJSON != goldenJSON {
		t.Errorf("served attribution report differs from golden")
	}

	// Resubmit: must be a cache hit with byte-identical artifact bytes.
	first, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := c.Wait(ctx, st2.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !fin2.CacheHit {
		t.Fatal("warm job missed the cache")
	}
	second, err := c.ResultBytes(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("cached artifact differs from cold run")
	}
}

func reportJSON(t *testing.T, r *attrib.Report) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestJobRetentionEvictsTerminal(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: stubRunner([]byte("x"), nil), MaxJobs: 2})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 4; i++ {
		st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: "postdoms"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if list := listJobs(t, c); len(list) > 2 {
		t.Fatalf("retained %d records, want <= 2", len(list))
	}
	if _, err := c.Status(ctx, ids[0]); err == nil {
		t.Fatal("oldest record survived eviction")
	}
}

// listJobs fetches every retained job, newest first.
func listJobs(t *testing.T, c *Client) []Status {
	t.Helper()
	var out []Status
	if _, err := c.do(context.Background(), http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// metricsText fetches the /metrics text summary.
func metricsText(t *testing.T, c *Client) string {
	t.Helper()
	var raw []byte
	if _, err := c.do(context.Background(), http.MethodGet, "/metrics", nil, &raw); err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// healthz returns the /healthz status code, 0 when no answer came back.
func healthz(c *Client) int {
	code, _ := c.do(context.Background(), http.MethodGet, "/healthz", nil, nil)
	return code
}

func waitState(t *testing.T, c *Client, id, want string) {
	t.Helper()
	waitFor(t, func() bool {
		st, err := c.Status(context.Background(), id)
		return err == nil && st.State == want
	}, "job "+id+" to reach "+want)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMain keeps the test binary honest about goroutine leaks at a coarse
// level: every server started via newTestServer is closed by cleanup.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
