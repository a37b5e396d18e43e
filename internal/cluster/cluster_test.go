package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/jobqueue"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// startWorker runs a real polyflowd worker on a loopback listener,
// optionally behind a middleware, and returns its base URL plus a kill
// function that severs the listener and every open connection — the
// SIGKILL stand-in the failure-injection test uses.
func startWorker(t *testing.T, mw func(http.Handler) http.Handler) (string, func()) {
	t.Helper()
	cache, err := artifact.New(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Cache: cache, Pool: jobqueue.New(jobqueue.Config{QueueDepth: 64})})
	if err != nil {
		t.Fatal(err)
	}
	handler := http.Handler(srv)
	if mw != nil {
		handler = mw(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	var once sync.Once
	kill := func() {
		once.Do(func() {
			hs.Close() // closes the listener and all active connections
			srv.Close()
		})
	}
	t.Cleanup(kill)
	return "http://" + ln.Addr().String(), kill
}

// coordServer exposes a coordinator through the ordinary polyflowd job API
// — the shape `experiments -cluster` talks to.
func coordServer(t *testing.T, coord *cluster.Coordinator) *server.Client {
	t.Helper()
	srv, err := server.New(server.Config{
		Runner: coord.Runner(),
		// Dispatch blocks pool workers on cluster I/O, so oversubscribe.
		Pool:         jobqueue.New(jobqueue.Config{Workers: 16, QueueDepth: 256}),
		MetricsExtra: coord.FillMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &server.Client{Base: hs.URL, HTTP: hs.Client(), Retry: server.DefaultRetry()}
}

// TestClusterGridByteIdentity holds the tentpole's core promise: a grid
// executed across a worker cluster produces a speedup table and attribution
// reports byte-identical to a single-node run.
func TestClusterGridByteIdentity(t *testing.T) {
	coord := cluster.New(cluster.Options{})
	defer coord.Close()
	for i := 0; i < 3; i++ {
		url, _ := startWorker(t, nil)
		if err := coord.AddWorker(url); err != nil {
			t.Fatal(err)
		}
	}
	client := coordServer(t, coord)

	o := harness.Options{Benches: []string{"mcf", "twolf"}, Policies: []string{"loop", "postdoms"}}

	localDir := t.TempDir()
	lo := o
	lo.AttribDir = localDir
	local, err := harness.Figure9Opts(lo)
	if err != nil {
		t.Fatal(err)
	}

	remoteDir := t.TempDir()
	ro := o
	ro.AttribDir = remoteDir
	ro.Remote = client
	remote, err := harness.Figure9Opts(ro)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(local, remote) {
		t.Errorf("cluster grid diverges from single-node grid:\nlocal:  %+v\nremote: %+v", local, remote)
	}

	ents, err := os.ReadDir(localDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no attribution reports written")
	}
	for _, e := range ents {
		want, err := os.ReadFile(filepath.Join(localDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(remoteDir, e.Name()))
		if err != nil {
			t.Fatalf("cluster grid missing attribution report %s: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("attribution report %s differs between single-node and cluster runs", e.Name())
		}
	}

	st := coord.Stats()
	if st.Completed == 0 {
		t.Errorf("coordinator completed 0 cells; the remote grid did not go through the cluster")
	}
}

// TestClusterWorkerFailureMidGrid kills the preferred worker while its
// cells are in flight and asserts zero lost cells: every cell completes on
// a survivor, the merged bytes equal a healthy single-node run, and the
// cluster.* telemetry records the retries. Run under -race in CI.
func TestClusterWorkerFailureMidGrid(t *testing.T) {
	const bench = "mcf"
	policies := []string{"superscalar", "loop", "loopFT", "procFT", "hammock", "postdoms"}

	// Reference bytes from an untouched single worker.
	refURL, _ := startWorker(t, nil)
	refClient := &server.Client{Base: refURL}
	ctx := context.Background()
	ref := make(map[string][]byte, len(policies))
	for _, pol := range policies {
		st, _, err := refClient.Submit(ctx, server.Request{Bench: bench, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := refClient.Wait(ctx, st.ID, time.Millisecond)
		if err != nil || fin.State != "succeeded" {
			t.Fatalf("reference %s: state=%q err=%v", pol, fin.State, err)
		}
		ref[pol], err = refClient.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every worker delays job submission, guaranteeing whichever worker we
	// pick as the victim still has its cells in flight when it dies.
	delay := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				time.Sleep(150 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}

	// Window 1 serializes each worker, so the grid spreads across all
	// three and the victim holds cells when it is killed.
	coord := cluster.New(cluster.Options{Window: 1})
	defer coord.Close()
	kills := map[string]func(){}
	for i := 0; i < 3; i++ {
		url, kill := startWorker(t, delay)
		kills[url] = kill
		if err := coord.AddWorker(url); err != nil {
			t.Fatal(err)
		}
	}
	// The ring decides placement; kill the worker it prefers for the bench
	// so at least its first cell is guaranteed to be in flight on it.
	victim, ok := coord.PreferredWorker(bench)
	if !ok {
		t.Fatalf("no preferred worker for %s", bench)
	}
	kill := kills[victim]

	var wg sync.WaitGroup
	data := make([][]byte, len(policies))
	errs := make([]error, len(policies))
	for i, pol := range policies {
		wg.Add(1)
		go func(i int, pol string) {
			defer wg.Done()
			data[i], _, errs[i] = coord.Runner()(ctx, server.Request{Bench: bench, Policy: pol}, nil)
		}(i, pol)
	}
	time.Sleep(75 * time.Millisecond) // let cells land on the victim
	kill()
	wg.Wait()

	for i, pol := range policies {
		if errs[i] != nil {
			t.Fatalf("cell %s/%s lost after worker death: %v", bench, pol, errs[i])
		}
		if !bytes.Equal(data[i], ref[pol]) {
			t.Errorf("cell %s/%s bytes differ from single-node reference after failover", bench, pol)
		}
	}

	st := coord.Stats()
	if st.Retries == 0 {
		t.Errorf("no retries recorded; the victim held no in-flight cells (stats %+v)", st)
	}
	if st.Completed != int64(len(policies)) {
		t.Errorf("completed %d cells, want %d", st.Completed, len(policies))
	}
	reg := telemetry.NewRegistry()
	coord.FillMetrics(reg)
	if v, ok := reg.CounterValue("cluster.retries"); !ok || v != st.Retries {
		t.Errorf("cluster.retries metric = %d (ok=%v), want %d", v, ok, st.Retries)
	}
	if v, ok := reg.CounterValue("cluster.worker_down_events"); !ok || v == 0 {
		t.Errorf("cluster.worker_down_events metric = %d (ok=%v), want > 0", v, ok)
	}
}

// fakeWorker is a minimal polyflowd stand-in that completes every job
// instantly and tracks how many cells are in flight (submitted, result not
// yet fetched) so the window-bound test can observe the coordinator's
// per-worker cap.
type fakeWorker struct {
	mu      sync.Mutex
	seq     int
	cur     int
	max     int
	submits atomic.Int64
}

func (f *fakeWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.seq++
		f.cur++
		if f.cur > f.max {
			f.max = f.cur
		}
		id := fmt.Sprintf("j%d", f.seq)
		f.mu.Unlock()
		f.submits.Add(1)
		time.Sleep(10 * time.Millisecond) // hold the slot long enough to overlap
		json.NewEncoder(w).Encode(map[string]any{"id": id, "state": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.cur--
		f.mu.Unlock()
		w.Write([]byte(`{"stub":true}`))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"id": r.PathValue("id"), "state": "succeeded", "cache_hit": true})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	return mux
}

// TestClusterWindowBound holds the bounded in-flight window: a worker never
// sees more concurrent cells than Options.Window, no matter how wide the
// grid fans out.
func TestClusterWindowBound(t *testing.T) {
	fw := &fakeWorker{}
	hs := httptest.NewServer(fw.handler())
	defer hs.Close()

	coord := cluster.New(cluster.Options{Window: 2})
	defer coord.Close()
	if err := coord.AddWorker(hs.URL); err != nil {
		t.Fatal(err)
	}

	const cells = 12
	var wg sync.WaitGroup
	errs := make([]error, cells)
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = coord.Runner()(context.Background(), server.Request{Bench: "gzip", Policy: "postdoms"}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	fw.mu.Lock()
	max := fw.max
	fw.mu.Unlock()
	if max > 2 {
		t.Errorf("worker saw %d concurrent in-flight cells, want <= 2 (the window)", max)
	}
	if got := fw.submits.Load(); got != cells {
		t.Errorf("worker served %d submissions, want %d", got, cells)
	}
}

// TestClusterCancelsAbandonedCell: a cell whose context ends while it runs
// cancels its worker job, so the worker stops simulating an orphan and the
// freed window slot matches an idle worker.
func TestClusterCancelsAbandonedCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The worker's job ends only when its context does, or when cleanup
	// releases it so that a failing run cannot hang the drain.
	release := make(chan struct{})
	blocking := func(jctx context.Context, req server.Request, progress server.ProgressFunc) ([]byte, bool, error) {
		select {
		case <-jctx.Done():
			return nil, false, jctx.Err()
		case <-release:
			return nil, false, errors.New("released by cleanup")
		}
	}
	srv, err := server.New(server.Config{Runner: blocking})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			cancel() // the coordinator polls only once its Submit succeeded; give up then
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		close(release)
		hs.Close()
		srv.Close()
	})
	worker := &server.Client{Base: hs.URL}

	coord := cluster.New(cluster.Options{})
	defer coord.Close()
	if err := coord.AddWorker(hs.URL); err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Runner()(ctx, server.Request{Bench: "gzip", Policy: "postdoms"}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Runner = %v, want context.Canceled", err)
	}
	jobs, err := worker.List(context.Background())
	if err != nil || len(jobs) != 1 {
		t.Fatalf("worker jobs = %+v, %v; want one", jobs, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := worker.Status(context.Background(), jobs[0].ID)
		if err == nil && st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker job %s still %q after the cell was abandoned (err %v)", jobs[0].ID, st.State, err)
		}
		time.Sleep(time.Millisecond)
	}
	if ws := coord.Workers(); ws[0].InFlight != 0 {
		t.Errorf("window slots in use after the cell ended: %d", ws[0].InFlight)
	}
}

// TestClusterHeartbeatDownUp drives the liveness loop: a worker that stops
// answering probes is marked down after the failure threshold, and marked
// up again as soon as it answers.
func TestClusterHeartbeatDownUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: probes fail with connection refused

	coord := cluster.New(cluster.Options{HeartbeatInterval: 10 * time.Millisecond, HeartbeatFailures: 2})
	defer coord.Close()
	if err := coord.AddWorker("http://" + addr); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for coord.Stats().WorkersUp != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never marked down (stats %+v)", coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := coord.Stats(); st.WorkerDownEvents == 0 || st.HeartbeatFailures == 0 {
		t.Errorf("down-marking left no telemetry: %+v", st)
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not re-bind %s to revive the worker: %v", addr, err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	go hs.Serve(ln2)
	defer hs.Close()

	for coord.Stats().WorkersUp != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never marked up again (stats %+v)", coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := coord.Stats(); st.WorkerUpEvents == 0 {
		t.Errorf("up-marking left no telemetry: %+v", st)
	}
}

// TestRegistrationHandler exercises the worker-facing registration API the
// way a joining polyflowd does.
func TestRegistrationHandler(t *testing.T) {
	coord := cluster.New(cluster.Options{})
	defer coord.Close()
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	ctx := context.Background()

	if err := cluster.Register(ctx, hs.URL, "http://127.0.0.1:9999", hs.Client()); err != nil {
		t.Fatal(err)
	}
	ws := coord.Workers()
	if len(ws) != 1 || ws[0].Addr != "http://127.0.0.1:9999" {
		t.Fatalf("workers after register: %+v", ws)
	}

	resp, err := hs.Client().Get(hs.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Workers []cluster.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed.Workers) != 1 {
		t.Fatalf("listed workers: %+v", listed)
	}

	if err := cluster.Deregister(ctx, hs.URL, "http://127.0.0.1:9999", hs.Client()); err != nil {
		t.Fatal(err)
	}
	if ws := coord.Workers(); len(ws) != 0 {
		t.Fatalf("workers after deregister: %+v", ws)
	}

	// A re-register of a known worker resets rather than duplicates.
	if err := cluster.Register(ctx, hs.URL, "http://127.0.0.1:9999/", hs.Client()); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Register(ctx, hs.URL, "http://127.0.0.1:9999", hs.Client()); err != nil {
		t.Fatal(err)
	}
	if ws := coord.Workers(); len(ws) != 1 {
		t.Fatalf("workers after double register: %+v", ws)
	}
}
