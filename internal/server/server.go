// Package server implements the polyflowd HTTP/JSON simulation service:
// clients submit (bench, policy) simulation jobs, poll their status, stream
// progress over SSE, and fetch results and attribution reports. Jobs run on
// a shared jobqueue pool with reject-when-full backpressure (HTTP 429) and
// results are memoized in the content-addressed artifact cache, so a warm
// request is served by decoding stored bytes instead of resimulating.
//
// The API surface (all JSON unless noted):
//
//	POST   /v1/jobs             submit a job  -> 202, 429 when full, 503 draining
//	GET    /v1/jobs             list retained jobs, newest first
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/result the simulation artifact (polyflow-simart/1)
//	GET    /v1/jobs/{id}/attrib the attribution report (polyflow-attrib/1)
//	GET    /v1/jobs/{id}/events SSE stream: state transitions and progress
//	GET    /v1/jobs/{id}/spans  the job's trace: Chrome trace-event JSON (?format=raw for obs.Export)
//	GET    /metrics             telemetry summary, text/plain (?format=prometheus for exposition 0.0.4)
//	GET    /healthz             200 ok, 503 while draining
//	GET    /readyz              200 while accepting work, 503 while draining
//
// Every job carries an obs.Trace; submitters may supply the ID in the
// X-Polyflow-Trace header (server.Client forwards a traced context's ID)
// and phase spans (queue_wait, bench_load, simulate, artifact_encode,
// cache_lookup) are recorded against it.
//
// See docs/SERVICE.md for the full protocol description.
package server

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

	"repro"
	"repro/internal/artifact"
	"repro/internal/jobqueue"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/tracestore"
)

// ProgressFunc receives simulation progress; it matches the machine
// Config.OnSample observer hook and is called from the cycle loop.
type ProgressFunc func(cycle, retired int64)

// Runner computes one job's artifact bytes. The default runner simulates
// through the artifact cache; tests inject slow or failing runners to
// exercise backpressure, cancellation and drain without real simulations.
type Runner func(ctx context.Context, req Request, progress ProgressFunc) (data []byte, cacheHit bool, err error)

// Request is the POST /v1/jobs body.
type Request struct {
	// Bench and Policy name the simulation cell, as in `polyflow -bench
	// -policy` (policy accepts "superscalar", "rec_pred", or any static
	// spawn policy).
	Bench  string `json:"bench"`
	Policy string `json:"policy"`
	// Priority orders the queue: higher runs first.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's run time in milliseconds when positive.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SampleInterval, when positive, records an IPC sample (and emits an
	// SSE progress event) every that many cycles. It is a semantic input:
	// the samples land in the result artifact, so it participates in the
	// cache key.
	SampleInterval int64 `json:"sample_interval,omitempty"`
	// SpawnMask suppresses individual spawn sites, in the canonical
	// "0xPC:kind,..." encoding of machine.ParseSpawnMask. Semantic: each
	// distinct mask is its own artifact-cache identity, so re-evaluating a
	// candidate (polytune does this constantly) is a warm hit while two
	// different masks can never alias. Rejected for the superscalar
	// baseline, which has no spawns to suppress.
	SpawnMask string `json:"spawn_mask,omitempty"`
}

// Progress is the payload of an SSE progress event.
type Progress struct {
	Cycle   int64 `json:"cycle"`
	Retired int64 `json:"retired"`
}

// Status describes one job to clients.
type Status struct {
	ID         string    `json:"id"`
	Bench      string    `json:"bench"`
	Policy     string    `json:"policy"`
	SpawnMask  string    `json:"spawn_mask,omitempty"`
	State      string    `json:"state"`
	Error      string    `json:"error,omitempty"`
	CacheHit   bool      `json:"cache_hit"`
	Submitted  time.Time `json:"submitted_at"`
	Started    time.Time `json:"started_at"`
	Finished   time.Time `json:"finished_at"`
	DurationMS int64     `json:"duration_ms,omitempty"`
	Progress   *Progress `json:"progress,omitempty"`
	// TraceID joins this job against its spans, its logs and the
	// submitter's own trace.
	TraceID string `json:"trace_id,omitempty"`
}

// Config assembles a Server.
type Config struct {
	// Pool schedules the jobs; nil builds an owned pool with jobqueue
	// defaults (GOMAXPROCS workers, queue depth 64).
	Pool *jobqueue.Pool
	// Cache memoizes simulation artifacts; nil builds a memory-only cache.
	Cache *artifact.Cache
	// MaxJobs bounds retained job records; <= 0 selects 4096. When the
	// bound is hit the oldest terminal record is evicted (running jobs are
	// never evicted).
	MaxJobs int
	// Runner overrides the simulation path (tests). Nil simulates.
	Runner Runner
	// Logger receives structured request/job records; nil disables logging
	// entirely (the nil check is the whole cost).
	Logger *slog.Logger
}

// Server is the polyflowd HTTP handler plus its job registry.
type Server struct {
	pool    *jobqueue.Pool
	ownPool bool
	cache   *artifact.Cache
	runner  Runner
	maxJobs int
	logger  *slog.Logger
	hists   *telemetry.HistSet
	mux     *http.ServeMux

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing and eviction
	seq   int64

	stop     chan struct{}
	stopOnce sync.Once

	m counters
}

// counters are the server-side metrics, atomic so handlers and workers can
// bump them concurrently; /metrics snapshots them into a fresh telemetry
// registry at dump time.
type counters struct {
	httpRequests     atomic.Int64
	submitted        atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	succeeded        atomic.Int64
	failed           atomic.Int64
	canceled         atomic.Int64
	cacheHits        atomic.Int64
	sseStreams       atomic.Int64

	// Trace provenance: how benchmark preparation obtained each workload's
	// trace (decode-once accounting), plus /v1/traces fetches served.
	traceEmuDecodes   atomic.Int64
	traceArtifactHits atomic.Int64
	traceMemoHits     atomic.Int64
	tracesServed      atomic.Int64
}

// New builds the server. Call Close when done; it drains the pool.
func New(cfg Config) (*Server, error) {
	s := &Server{
		pool:    cfg.Pool,
		cache:   cfg.Cache,
		runner:  cfg.Runner,
		maxJobs: cfg.MaxJobs,
		logger:  cfg.Logger,
		hists:   telemetry.NewHistSet(),
		jobs:    map[string]*job{},
		stop:    make(chan struct{}),
	}
	if s.pool == nil {
		s.pool = jobqueue.New(jobqueue.Config{})
		s.ownPool = true
	}
	if s.cache == nil {
		c, err := artifact.New(artifact.Options{})
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	if s.maxJobs <= 0 {
		s.maxJobs = 4096
	}
	if s.runner == nil {
		s.runner = s.simulate
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/jobs", s.handleSubmit)
	s.route("GET /v1/jobs", s.handleList)
	s.route("GET /v1/jobs/{id}", s.handleStatus)
	s.route("DELETE /v1/jobs/{id}", s.handleCancel)
	s.route("GET /v1/jobs/{id}/result", s.handleResult)
	s.route("GET /v1/jobs/{id}/attrib", s.handleAttrib)
	s.route("GET /v1/jobs/{id}/events", s.handleEvents)
	s.route("GET /v1/jobs/{id}/spans", s.handleSpans)
	s.route("GET /v1/traces/{bench}", s.handleTrace)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	return s, nil
}

// httpLatencyBounds and phaseBounds are the millisecond histogram edges for
// per-endpoint and per-phase latencies.
var (
	httpLatencyBounds = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
	phaseBounds       = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
)

// route registers a handler and wraps it with a per-endpoint latency
// histogram keyed by the route pattern (for the SSE endpoint the recorded
// latency is the stream's lifetime).
func (s *Server) route(pattern string, h http.HandlerFunc) {
	name := "server.http.latency_ms{" + telemetry.PromLabel("route", pattern) + "}"
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.hists.Observe(name, httpLatencyBounds, time.Since(start).Milliseconds())
	})
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.httpRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Cache exposes the artifact cache.
func (s *Server) Cache() *artifact.Cache { return s.cache }

// Drain stops intake (submissions answer 503) and waits for accepted jobs
// to finish; when ctx expires first the remainder is canceled. SSE streams
// are closed. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stop) })
	return s.pool.Drain(ctx)
}

// Close drains with no deadline and, when the pool is owned, stops its
// workers.
func (s *Server) Close() {
	s.Drain(context.Background())
	if s.ownPool {
		s.pool.Close()
	}
}

// bench loads one prepared benchmark via the decode-once path: the trace
// comes from the process memo, a stored polyflow-trace/1 artifact, or —
// exactly once per (workload, cache) — a fresh emulator run whose product
// is then stored. The provenance counters feed /metrics, which the CI
// server-smoke asserts on: two jobs for one workload must show a single
// emulator decode.
func (s *Server) bench(ctx context.Context, name string) (*speculate.Bench, error) {
	end := obs.StartSpan(ctx, "bench_load")
	b, src, err := speculate.LoadCached(name, s.cache)
	if err != nil {
		end.End("bench", name, "error", "true")
		return nil, err
	}
	source := "unknown"
	switch src {
	case speculate.LoadEmulated:
		s.m.traceEmuDecodes.Add(1)
		source = "emulated"
	case speculate.LoadTraceArtifact:
		s.m.traceArtifactHits.Add(1)
		source = "artifact"
	case speculate.LoadMemoized:
		s.m.traceMemoHits.Add(1)
		source = "memo"
	}
	end.End("bench", name, "source", source)
	return b, nil
}

// handleTrace serves a workload's serialized polyflow-trace/1 artifact, so
// a client can fetch the decoded trace instead of re-emulating
// (`polyflow -trace-in` consumes the bytes). The ETag is the artifact's
// content hash.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("bench")
	if _, err := s.bench(r.Context(), name); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	data, hash, err := speculate.TraceBytes(name, s.cache)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.tracesServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", `"`+hash+`"`)
	w.Header().Set("X-Trace-Schema", tracestore.Schema)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// simulate is the default Runner: speculate.RunCell behind the server's
// artifact cache — the same cell path the harness grids and the local
// tuner take, so server jobs and `experiments -cache-dir` runs share cache
// entries byte for byte.
func (s *Server) simulate(ctx context.Context, req Request, progress ProgressFunc) ([]byte, bool, error) {
	b, err := s.bench(ctx, req.Bench)
	if err != nil {
		return nil, false, err
	}
	mask, err := machine.ParseSpawnMask(req.SpawnMask)
	if err != nil {
		return nil, false, err
	}
	return speculate.RunCell(ctx, b, s.cache, req.Policy, mask, req.SampleInterval, progress, nil)
}

// validate rejects malformed requests before they consume a queue slot.
func validate(req Request) error {
	okBench := false
	for _, n := range speculate.AllWorkloadNames() {
		if n == req.Bench {
			okBench = true
			break
		}
	}
	if !okBench {
		return fmt.Errorf("unknown bench %q (have %v)", req.Bench, speculate.AllWorkloadNames())
	}
	okPolicy := false
	for _, n := range speculate.PolicyNames() {
		if n == req.Policy {
			okPolicy = true
			break
		}
	}
	if !okPolicy {
		return fmt.Errorf("unknown policy %q (have %v)", req.Policy, speculate.PolicyNames())
	}
	if req.SampleInterval < 0 {
		return fmt.Errorf("negative sample_interval %d", req.SampleInterval)
	}
	if req.SpawnMask != "" {
		if req.Policy == "superscalar" {
			return fmt.Errorf("spawn_mask is meaningless for the superscalar baseline (no spawns to suppress)")
		}
		if _, err := machine.ParseSpawnMask(req.SpawnMask); err != nil {
			return fmt.Errorf("bad spawn_mask: %w", err)
		}
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if err := validate(req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Every job is traced. A caller-supplied X-Polyflow-Trace ID joins this
	// job to the caller's own trace; otherwise the job gets a fresh ID. Its
	// spans also feed the per-phase latency histograms.
	tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
	tr.OnRecord(func(sp obs.Span) {
		s.hists.Observe("server.phase."+sp.Name+"_ms", phaseBounds, sp.Duration().Milliseconds())
	})
	j := s.register(req, tr)
	h, err := s.pool.Submit(jobqueue.Job{
		ID:       j.id,
		Priority: req.Priority,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		Fn: func(ctx context.Context) error {
			j.setRunning()
			data, hit, err := s.runner(obs.With(ctx, tr), req, j.onProgress)
			if err != nil {
				return err
			}
			j.setResult(data, hit)
			if hit {
				s.m.cacheHits.Add(1)
			}
			return nil
		},
	})
	if err != nil {
		s.unregister(j.id)
		switch {
		case errors.Is(err, jobqueue.ErrQueueFull):
			s.m.rejectedFull.Add(1)
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, jobqueue.ErrDraining):
			s.m.rejectedDraining.Add(1)
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		if s.logger != nil {
			s.logger.Warn("job rejected", "trace_id", tr.ID(), "bench", req.Bench, "policy", req.Policy, "error", err.Error())
		}
		return
	}
	j.handle = h
	s.m.submitted.Add(1)
	if s.logger != nil {
		s.logger.Info("job submitted", "job_id", j.id, "trace_id", tr.ID(), "bench", req.Bench, "policy", req.Policy, "priority", req.Priority)
	}
	go s.watch(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// watch finalizes the record when the pool settles the job, counting the
// outcome and closing event streams.
func (s *Server) watch(j *job) {
	<-j.handle.Done()
	switch j.handle.State() {
	case jobqueue.Succeeded:
		s.m.succeeded.Add(1)
	case jobqueue.Canceled:
		s.m.canceled.Add(1)
	default:
		s.m.failed.Add(1)
	}
	j.finish(j.handle.State(), j.handle.Err())
	if s.logger != nil {
		st := j.status()
		attrs := []any{"job_id", j.id, "trace_id", st.TraceID, "state", st.State, "duration_ms", st.DurationMS, "cache_hit", st.CacheHit}
		if st.Error != "" {
			attrs = append(attrs, "error", st.Error)
		}
		s.logger.Info("job finished", attrs...)
	}
}

// register allocates a job record, evicting the oldest terminal record
// beyond the retention bound.
func (s *Server) register(req Request, tr *obs.Trace) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := newJob(fmt.Sprintf("j%06d-%s-%s", s.seq, req.Bench, req.Policy), req, tr)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > s.maxJobs {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			if old.terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is still live
		}
	}
	return j
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.jobs[s.order[i]].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if j.handle != nil {
		j.handle.Cancel()
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	data, st := j.result()
	if st != jobqueue.Succeeded {
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s, result available once succeeded", st))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleAttrib(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	data, st := j.result()
	if st != jobqueue.Succeeded {
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s, report available once succeeded", st))
		return
	}
	art, err := artifact.DecodeSim(data)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if art.Attrib == nil {
		writeError(w, http.StatusNotFound, errors.New("artifact carries no attribution report"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	art.Attrib.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	status := "ok"
	code := http.StatusOK
	if st.Draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"queued":  st.Queued,
		"running": st.Running,
	})
}

// handleReadyz is the traffic-readiness probe, distinct from /healthz
// (liveness): it answers 200 while the daemon accepts work and 503 once
// draining starts. Smoke scripts and load balancers poll this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	if s.pool.Stats().Draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status})
}

// handleSpans serves a job's trace: by default Chrome trace-event JSON
// (loadable in Perfetto), with ?format=raw for the obs.Export form that
// Client.Spans decodes.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusNotFound, errors.New("job has no trace"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if r.URL.Query().Get("format") == "raw" {
		j.trace.WriteJSON(w)
		return
	}
	j.trace.WriteChrome(w)
}

// handleMetrics renders the server, pool and cache metrics as a telemetry
// summary. The atomics are snapshotted into a fresh registry at dump time —
// registry counters themselves are single-writer and must not be bumped
// from concurrent handlers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := telemetry.NewRegistry()
	set := func(name string, v int64) { c := reg.Counter(name); c.Add(v) }
	set("server.http.requests", s.m.httpRequests.Load())
	set("server.jobs.submitted", s.m.submitted.Load())
	set("server.jobs.rejected_full", s.m.rejectedFull.Load())
	set("server.jobs.rejected_draining", s.m.rejectedDraining.Load())
	set("server.jobs.succeeded", s.m.succeeded.Load())
	set("server.jobs.failed", s.m.failed.Load())
	set("server.jobs.canceled", s.m.canceled.Load())
	set("server.jobs.cache_hits", s.m.cacheHits.Load())
	set("server.sse.streams", s.m.sseStreams.Load())
	set("server.traces.emu_decodes", s.m.traceEmuDecodes.Load())
	set("server.traces.artifact_hits", s.m.traceArtifactHits.Load())
	set("server.traces.memo_hits", s.m.traceMemoHits.Load())
	set("server.traces.served", s.m.tracesServed.Load())

	ps := s.pool.Stats()
	reg.Gauge("pool.workers").Set(int64(ps.Workers))
	reg.Gauge("pool.queued").Set(int64(ps.Queued))
	reg.Gauge("pool.running").Set(int64(ps.Running))
	set("pool.succeeded", ps.Succeeded)
	set("pool.failed", ps.Failed)
	set("pool.canceled", ps.Canceled)
	set("pool.rejected", ps.Rejected)

	cs := s.cache.Stats()
	set("cache.mem_hits", cs.MemHits)
	set("cache.disk_hits", cs.DiskHits)
	set("cache.misses", cs.Misses)
	set("cache.evictions", cs.Evictions)
	reg.Gauge("cache.mem_entries").Set(int64(cs.MemEntries))
	reg.Gauge("cache.mem_bytes").Set(cs.MemBytes)

	s.hists.Fill(reg)

	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	reg.WriteSummary(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
