package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/jobqueue"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options sizes a Coordinator.
type Options struct {
	// Window bounds in-flight cells per worker; <= 0 selects 2 (one
	// running plus one queued keeps a worker busy back to back without
	// piling a grid onto whoever answers first).
	Window int
	// Replicas is the virtual-node count per worker on the hash ring;
	// <= 0 selects 64.
	Replicas int
	// HeartbeatInterval is the liveness probe period; <= 0 selects 1s.
	HeartbeatInterval time.Duration
	// HeartbeatFailures marks a worker down after this many consecutive
	// failed probes; <= 0 selects 3. A down worker stops receiving cells
	// until a probe succeeds again.
	HeartbeatFailures int
	// DispatchWorkers bounds concurrently executing cells across the
	// fleet; <= 0 selects 32. Dispatch is I/O-bound (the cells run on
	// remote CPUs), so this deliberately oversubscribes GOMAXPROCS.
	DispatchWorkers int
	// QueueDepth bounds the dispatch queue; <= 0 selects 256.
	QueueDepth int
	// Retry is the per-call HTTP retry policy for worker requests; the
	// zero value selects server.DefaultRetry().
	Retry server.RetryPolicy
	// PollInterval is the job-status poll period against workers; <= 0
	// selects 5ms.
	PollInterval time.Duration
	// HTTP overrides the transport used for worker calls (tests).
	HTTP *http.Client
	// Logger receives structured dispatch and membership records; nil
	// disables logging.
	Logger *slog.Logger
}

// Coordinator fans grid cells out to registered polyflowd workers and
// collects their artifact bytes. Plug Runner() into server.Config.Runner
// to serve the ordinary job API (including SSE state streams) on top of
// cluster execution, and FillMetrics into Config.MetricsExtra to expose
// the cluster.* counters on /metrics.
type Coordinator struct {
	opts  Options
	pool  *jobqueue.Pool // dispatch pool, remote executor
	hists *telemetry.HistSet

	mu      sync.Mutex
	ring    *Ring
	members map[string]*member
	keys    map[string]string // bench -> ring key (trace-artifact hash), immutable per bench

	stop     chan struct{}
	stopOnce sync.Once
	hbDone   chan struct{}

	m struct {
		dispatched        atomic.Int64
		completed         atomic.Int64
		retries           atomic.Int64
		cellErrors        atomic.Int64
		heartbeatFailures atomic.Int64
		workerDownEvents  atomic.Int64
		workerUpEvents    atomic.Int64
	}
}

// member is one registered worker.
type member struct {
	id     string         // advertised base URL, also the ring member ID
	client *server.Client // retrying client for cell traffic
	probe  *server.Client // non-retrying client for heartbeats
	sem    chan struct{}  // in-flight window slots
	down   atomic.Bool
	fails  int // consecutive heartbeat failures; guarded by Coordinator.mu

	// lastBeat is the unix-millisecond time of the last successful
	// liveness signal (registration or heartbeat probe); the age gauge in
	// GET /v1/cluster/workers derives from it.
	lastBeat atomic.Int64

	dispatched atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	retries    atomic.Int64 // transient failures re-dispatched elsewhere
}

// acquireTimeout waits up to d for a window slot, reporting false on
// timeout so the caller can re-evaluate placement — a less-preferred
// worker may have gone idle while this one stayed saturated, and a
// time-bounded wait turns strict affinity into affinity-with-spill
// without ever exceeding any worker's window.
func (m *member) acquireTimeout(ctx context.Context, d time.Duration) (bool, error) {
	select {
	case m.sem <- struct{}{}:
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case m.sem <- struct{}{}:
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	case <-t.C:
		return false, nil
	}
}

func (m *member) release() { <-m.sem }

// freeSlot reports whether the worker has an idle window slot right now.
// It is advisory — the actual bound is enforced by acquire.
func (m *member) freeSlot() bool { return len(m.sem) < cap(m.sem) }

// Cell is one grid cell shipped through the remote executor: the request
// going in, the artifact bytes coming out.
type Cell struct {
	Req      server.Request
	Data     []byte
	CacheHit bool
	Worker   string // base URL of the worker that completed the cell
	// Progress, when non-nil, receives the worker's live progress samples:
	// the coordinator subscribes to the worker job's SSE stream and relays
	// each sample here, so a coordinator-side SSE watcher sees real worker
	// progress, not just queued/running/terminal transitions.
	Progress server.ProgressFunc
	// Trace, when non-nil, collects the cell's fleet spans: dispatch spans
	// on the coordinator side plus the worker's own phase spans, imported
	// after completion under the worker's base URL.
	Trace *obs.Trace
}

// remoteExecutor is the jobqueue.Executor that ships cell payloads to
// cluster workers; jobqueue.LocalExecutor is its in-process counterpart.
// Jobs without a *Cell payload fall back to local execution, so a shared
// pool can mix cluster cells with ordinary work.
type remoteExecutor struct{ c *Coordinator }

func (e remoteExecutor) Execute(ctx context.Context, j jobqueue.Job) error {
	cell, ok := j.Payload.(*Cell)
	if !ok {
		return jobqueue.LocalExecutor{}.Execute(ctx, j)
	}
	return e.c.execute(ctx, cell)
}

// New builds and starts a coordinator (its heartbeat loop runs until
// Close).
func New(opts Options) *Coordinator {
	if opts.Window <= 0 {
		opts.Window = 2
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.HeartbeatFailures <= 0 {
		opts.HeartbeatFailures = 3
	}
	if opts.DispatchWorkers <= 0 {
		opts.DispatchWorkers = 32
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Retry == (server.RetryPolicy{}) {
		opts.Retry = server.DefaultRetry()
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 5 * time.Millisecond
	}
	c := &Coordinator{
		opts:    opts,
		hists:   telemetry.NewHistSet(),
		ring:    NewRing(opts.Replicas),
		members: map[string]*member{},
		keys:    map[string]string{},
		stop:    make(chan struct{}),
		hbDone:  make(chan struct{}),
	}
	c.pool = jobqueue.New(jobqueue.Config{
		Workers:    opts.DispatchWorkers,
		QueueDepth: opts.QueueDepth,
		Executor:   remoteExecutor{c},
	})
	go c.heartbeatLoop()
	return c
}

// Close stops the heartbeat loop and drains the dispatch pool.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.hbDone
	c.pool.Close()
}

// AddWorker registers a worker by base URL (e.g. "http://10.0.0.2:8080").
// Registering an existing worker resets its down state, so a restarted
// worker that re-joins resumes traffic immediately.
func (c *Coordinator) AddWorker(base string) error {
	base = normalizeBase(base)
	if base == "" {
		return errors.New("cluster: empty worker address")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[base]; ok {
		m.fails = 0
		m.down.Store(false)
		return nil
	}
	m := &member{
		id:     base,
		client: &server.Client{Base: base, HTTP: c.opts.HTTP, Retry: c.opts.Retry},
		probe:  &server.Client{Base: base, HTTP: c.opts.HTTP},
		sem:    make(chan struct{}, c.opts.Window),
	}
	m.lastBeat.Store(time.Now().UnixMilli())
	c.members[base] = m
	c.ring.Add(base)
	if c.opts.Logger != nil {
		c.opts.Logger.Info("worker registered", "component", "cluster", "worker", base)
	}
	return nil
}

// RemoveWorker deregisters a worker. In-flight cells on it fail over to
// the survivors through the ordinary retry path.
func (c *Coordinator) RemoveWorker(base string) {
	base = normalizeBase(base)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[base]; !ok {
		return
	}
	delete(c.members, base)
	c.ring.Remove(base)
	if c.opts.Logger != nil {
		c.opts.Logger.Info("worker deregistered", "component", "cluster", "worker", base)
	}
}

func normalizeBase(base string) string {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return base
}

// Runner adapts the coordinator to server.Runner: a polyflowd in
// coordinator mode serves the unchanged submit/status/result/SSE API while
// every cell executes on the cluster. Cache hits reported by workers
// propagate into the coordinator's job records.
func (c *Coordinator) Runner() server.Runner {
	return func(ctx context.Context, req server.Request, progress server.ProgressFunc) ([]byte, bool, error) {
		// The caller's trace and progress hook ride in the cell: execute
		// runs on the dispatch pool under a different context.
		cell := &Cell{Req: req, Progress: progress, Trace: obs.From(ctx)}
		return c.runCell(ctx, cell)
	}
}

// RunCell executes one (bench, policy) cell on the cluster and returns
// the artifact bytes, exactly as a single polyflowd would serve them.
func (c *Coordinator) RunCell(ctx context.Context, req server.Request) ([]byte, bool, error) {
	return c.runCell(ctx, &Cell{Req: req, Trace: obs.From(ctx)})
}

func (c *Coordinator) runCell(ctx context.Context, cell *Cell) ([]byte, bool, error) {
	req := cell.Req
	job := jobqueue.Job{ID: "cell/" + req.Bench + "/" + req.Policy, Priority: req.Priority, Payload: cell}
	h, err := c.pool.SubmitWait(ctx, job)
	if err != nil {
		return nil, false, err
	}
	if err := h.Wait(ctx); err != nil {
		if ctx.Err() != nil {
			h.Cancel()
		}
		return nil, false, err
	}
	return cell.Data, cell.CacheHit, nil
}

// ringKeyFor maps a bench to its trace-artifact key hash — the same
// content address workers store the trace under, so cell placement and
// cache placement agree by construction. The hash covers the workload's
// full source, so the coordinator memoizes it per bench instead of
// re-hashing on every cell.
func (c *Coordinator) ringKeyFor(bench string) (string, error) {
	c.mu.Lock()
	key, ok := c.keys[bench]
	c.mu.Unlock()
	if ok {
		return key, nil
	}
	w, ok := workloads.ByName(bench)
	if !ok {
		return "", fmt.Errorf("cluster: unknown bench %q", bench)
	}
	k, err := artifact.NewTraceKey(w.Name, w.SHA(), w.MaxInstrs)
	if err != nil {
		return "", err
	}
	key = k.Hash()
	c.mu.Lock()
	c.keys[bench] = key
	c.mu.Unlock()
	return key, nil
}

// execute runs one cell: pick a worker (affinity first, spill when the
// preferred ones are saturated), ship the cell, and on worker failure move
// to the next candidate in the key's ring sequence. Deterministic
// simulation failures are not retried — they would fail identically
// everywhere.
func (c *Coordinator) execute(ctx context.Context, cell *Cell) error {
	key, err := c.ringKeyFor(cell.Req.Bench)
	if err != nil {
		c.m.cellErrors.Add(1)
		return err
	}
	c.m.dispatched.Add(1)
	ctx = obs.With(ctx, cell.Trace)
	placed := time.Now()
	tried := map[string]bool{}
	for {
		m, err := c.pick(key, tried)
		if err != nil {
			c.m.cellErrors.Add(1)
			return err
		}
		ok, err := m.acquireTimeout(ctx, c.opts.PollInterval)
		if err != nil {
			return err
		}
		if !ok {
			// The pick went stale while we waited; place the cell again.
			continue
		}
		// How long placement took, including every re-pick and spill wait.
		c.hists.Observe("cluster.placement_wait_ms", clusterBounds, time.Since(placed).Milliseconds())
		m.dispatched.Add(1)
		endDispatch := obs.StartSpan(ctx, "dispatch")
		start := time.Now()
		data, hit, rerr := c.runOn(ctx, m, cell)
		m.release()
		c.hists.Observe("cluster.worker.dispatch_ms{"+telemetry.PromLabel("worker", m.id)+"}",
			clusterBounds, time.Since(start).Milliseconds())
		if rerr == nil {
			endDispatch.End("worker", m.id)
			m.completed.Add(1)
			cell.Data, cell.CacheHit, cell.Worker = data, hit, m.id
			c.m.completed.Add(1)
			return nil
		}
		endDispatch.End("worker", m.id, "error", "true")
		m.failed.Add(1)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var we *workerError
		if !errors.As(rerr, &we) || !we.transient {
			c.m.cellErrors.Add(1)
			return fmt.Errorf("cluster: cell %s/%s on %s: %w", cell.Req.Bench, cell.Req.Policy, m.id, rerr)
		}
		// Transient worker failure: count the retry, suspect the worker
		// (the heartbeat revives it when it answers again), move on.
		tried[m.id] = true
		c.markDown(m)
		c.m.retries.Add(1)
		m.retries.Add(1)
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("cell retried on another worker", "component", "cluster",
				"bench", cell.Req.Bench, "policy", cell.Req.Policy, "worker", m.id,
				"trace_id", traceID(cell.Trace), "error", rerr.Error())
		}
	}
}

// clusterBounds are the millisecond edges for dispatch and placement
// histograms.
var clusterBounds = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

func traceID(t *obs.Trace) string {
	if t == nil {
		return ""
	}
	return t.ID()
}

// pick chooses the worker for key: the first live untried member of the
// key's ring sequence with an idle window slot; when every live candidate
// is saturated, the most-preferred one — the caller then waits a bounded
// time on its window before re-picking, preserving cache affinity under
// load (bounded-load consistent hashing: spill only to idle workers,
// never pile onto an arbitrary busy one) while still draining onto
// whichever worker frees up first when the whole fleet is busy.
func (c *Coordinator) pick(key string, tried map[string]bool) (*member, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.ring.Sequence(key)
	var first *member
	for _, id := range seq {
		m := c.members[id]
		if m == nil || m.down.Load() || tried[id] {
			continue
		}
		if first == nil {
			first = m
		}
		if m.freeSlot() {
			return m, nil
		}
	}
	if first == nil {
		return nil, fmt.Errorf("cluster: no live worker for cell (workers=%d, excluded=%d)", len(c.members), len(tried))
	}
	return first, nil
}

// workerError wraps a failed worker interaction; transient failures are
// retried on another worker, permanent ones (a deterministic simulation
// failure, a rejected request body) propagate to the caller.
type workerError struct {
	err       error
	transient bool
}

func (e *workerError) Error() string { return e.err.Error() }
func (e *workerError) Unwrap() error { return e.err }

// transientCode classifies an HTTP answer from a worker. Code 0 is a
// transport failure; 429/5xx are load or server trouble. All of those may
// succeed elsewhere. 4xx (other than 429) means the request itself is
// bad and no worker will accept it.
func transientCode(code int) bool {
	return code == 0 || code == http.StatusTooManyRequests || code >= 500
}

// runOn ships one cell to one worker and fetches the artifact bytes. ctx
// carries the cell's trace, so Submit stamps the X-Polyflow-Trace header
// and the worker job joins the coordinator's trace. While the job runs, a
// relay goroutine subscribes to the worker's SSE stream and forwards
// progress samples to the cell's Progress hook; after success the worker's
// spans are imported under its base URL.
func (c *Coordinator) runOn(ctx context.Context, m *member, cell *Cell) ([]byte, bool, error) {
	st, code, err := m.client.Submit(ctx, cell.Req)
	if err != nil {
		return nil, false, &workerError{fmt.Errorf("submit: %w", err), transientCode(code)}
	}
	if cell.Progress != nil {
		relayCtx, stopRelay := context.WithCancel(ctx)
		defer stopRelay()
		go c.relayProgress(relayCtx, m, st.ID, cell.Progress)
	}
	fin, err := m.client.Wait(ctx, st.ID, c.opts.PollInterval)
	if err != nil {
		// Transport loss or a worker restart that forgot the job: both
		// retryable elsewhere.
		return nil, false, &workerError{fmt.Errorf("wait: %w", err), true}
	}
	switch fin.State {
	case "succeeded":
	case "canceled":
		// A draining worker cancels its jobs; rerun the cell elsewhere.
		return nil, false, &workerError{fmt.Errorf("job %s canceled by worker", st.ID), true}
	default:
		// The simulation itself failed — deterministic, so no other
		// worker would fare better.
		return nil, false, &workerError{fmt.Errorf("job %s failed: %s", st.ID, fin.Error), false}
	}
	data, err := m.client.ResultBytes(ctx, fin.ID)
	if err != nil {
		return nil, false, &workerError{fmt.Errorf("result: %w", err), true}
	}
	if cell.Trace != nil {
		// Best effort: a worker that drained between Wait and here just
		// leaves the timeline without its side of the story.
		if ex, err := m.client.Spans(ctx, fin.ID); err == nil {
			cell.Trace.Import(m.id, ex.Spans)
		}
	}
	return data, fin.CacheHit, nil
}

// relayProgress streams one worker job's SSE events and forwards each
// progress sample; it exits when the stream ends (terminal state) or ctx is
// canceled. Relay loss is benign — progress is advisory.
func (c *Coordinator) relayProgress(ctx context.Context, m *member, jobID string, progress server.ProgressFunc) {
	m.client.StreamEvents(ctx, jobID, func(event string, data []byte) error {
		if event != "progress" {
			return nil
		}
		var p server.Progress
		if json.Unmarshal(data, &p) == nil {
			progress(p.Cycle, p.Retired)
		}
		return nil
	})
}

// markDown suspects a worker after a failed cell. The heartbeat loop
// restores it as soon as it answers a probe, so a blip costs at most one
// probe period of exclusion.
func (c *Coordinator) markDown(m *member) {
	if !m.down.Swap(true) {
		c.m.workerDownEvents.Add(1)
	}
}

// heartbeatLoop probes every worker each interval and flips down/up state.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.hbDone)
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		snapshot := make([]*member, 0, len(c.members))
		for _, m := range c.members {
			snapshot = append(snapshot, m)
		}
		c.mu.Unlock()
		for _, m := range snapshot {
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.HeartbeatInterval)
			healthy := m.probe.Healthy(ctx)
			cancel()
			c.mu.Lock()
			if healthy {
				m.fails = 0
				m.lastBeat.Store(time.Now().UnixMilli())
				if m.down.Swap(false) {
					c.m.workerUpEvents.Add(1)
					if c.opts.Logger != nil {
						c.opts.Logger.Info("worker up", "component", "cluster", "worker", m.id)
					}
				}
			} else {
				m.fails++
				c.m.heartbeatFailures.Add(1)
				if m.fails >= c.opts.HeartbeatFailures && !m.down.Swap(true) {
					c.m.workerDownEvents.Add(1)
					if c.opts.Logger != nil {
						c.opts.Logger.Warn("worker down", "component", "cluster", "worker", m.id, "failed_probes", m.fails)
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// PreferredWorker reports where the ring currently places a workload
// (diagnostics and tests; failover may execute cells elsewhere).
func (c *Coordinator) PreferredWorker(bench string) (string, bool) {
	key, err := c.ringKeyFor(bench)
	if err != nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Lookup(key)
}

// Stats is a snapshot of cluster-wide accounting.
type Stats struct {
	Workers           int
	WorkersUp         int
	Dispatched        int64
	Completed         int64
	Retries           int64
	CellErrors        int64
	HeartbeatFailures int64
	WorkerDownEvents  int64
	WorkerUpEvents    int64
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	workers, up := len(c.members), 0
	for _, m := range c.members {
		if !m.down.Load() {
			up++
		}
	}
	c.mu.Unlock()
	return Stats{
		Workers:           workers,
		WorkersUp:         up,
		Dispatched:        c.m.dispatched.Load(),
		Completed:         c.m.completed.Load(),
		Retries:           c.m.retries.Load(),
		CellErrors:        c.m.cellErrors.Load(),
		HeartbeatFailures: c.m.heartbeatFailures.Load(),
		WorkerDownEvents:  c.m.workerDownEvents.Load(),
		WorkerUpEvents:    c.m.workerUpEvents.Load(),
	}
}

// WorkerStatus describes one registered worker to clients.
type WorkerStatus struct {
	Addr       string `json:"addr"`
	Up         bool   `json:"up"`
	InFlight   int    `json:"in_flight"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
	Failed     int64  `json:"failed"`
	Retries    int64  `json:"retries"`
	// LastHeartbeatAgeMS is how long ago the worker last proved liveness
	// (registration or a successful probe); a staleness signal for
	// dashboards even while Up is still true.
	LastHeartbeatAgeMS int64 `json:"last_heartbeat_age_ms"`
}

// Workers snapshots the fleet, sorted by address.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now().UnixMilli()
	out := make([]WorkerStatus, 0, len(c.members))
	for _, id := range c.ring.Members() {
		m := c.members[id]
		age := now - m.lastBeat.Load()
		if age < 0 {
			age = 0
		}
		out = append(out, WorkerStatus{
			Addr:               m.id,
			Up:                 !m.down.Load(),
			InFlight:           len(m.sem),
			Dispatched:         m.dispatched.Load(),
			Completed:          m.completed.Load(),
			Failed:             m.failed.Load(),
			Retries:            m.retries.Load(),
			LastHeartbeatAgeMS: age,
		})
	}
	return out
}

// FillMetrics injects the cluster.* counters and gauges into a metrics
// snapshot registry (plug into server.Config.MetricsExtra).
func (c *Coordinator) FillMetrics(reg *telemetry.Registry) {
	st := c.Stats()
	add := func(name string, v int64) { reg.Counter(name).Add(v) }
	add("cluster.cells_dispatched", st.Dispatched)
	add("cluster.cells_completed", st.Completed)
	add("cluster.retries", st.Retries)
	add("cluster.cell_errors", st.CellErrors)
	add("cluster.heartbeat_failures", st.HeartbeatFailures)
	add("cluster.worker_down_events", st.WorkerDownEvents)
	add("cluster.worker_up_events", st.WorkerUpEvents)
	reg.Gauge("cluster.workers").Set(int64(st.Workers))
	reg.Gauge("cluster.workers_up").Set(int64(st.WorkersUp))
	for _, ws := range c.Workers() {
		label := "{" + telemetry.PromLabel("worker", ws.Addr) + "}"
		reg.Gauge("cluster.worker.last_heartbeat_age_ms" + label).Set(ws.LastHeartbeatAgeMS)
		reg.Gauge("cluster.worker.up" + label).Set(boolGauge(ws.Up))
		add("cluster.worker.dispatched"+label, ws.Dispatched)
		add("cluster.worker.completed"+label, ws.Completed)
		add("cluster.worker.failed"+label, ws.Failed)
		add("cluster.worker.retries"+label, ws.Retries)
	}
	c.hists.Fill(reg)
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
