package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/jobqueue"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/tune"
)

// gridPolicies are the columns of a grid session, in the order its cells
// are submitted; tunePolicies are the policies a tune session searches
// (every grid column that spawns).
var (
	gridPolicies = []string{"superscalar", "postdoms", "rec_pred", "loopFT", "procFT", "hammock"}
	tunePolicies = gridPolicies[1:]
)

// pollInterval is Client.Wait's poll period, as the harness's remote cells
// use.
const pollInterval = 5 * time.Millisecond

// reRuns is how many times a session is re-run against the warm daemon
// after its first run. It sets the hit share: a session never requests
// the same cell twice, so every hit comes from a re-run. The repository's
// callers do not fix this number (CI's tune-smoke job re-runs a search
// once); two re-runs, about three hits per miss, is an assumed mix, not a
// measured one.
const reRuns = 2

// serviceMix drives an in-process polyflowd on loopback with closed-loop
// clients. Each client runs sessions, the request sequences the
// repository's two service callers issue: a grid session is the cells
// `experiments -cluster -bench B` submits (the harness's remote cell path:
// submit, Client.Wait, ResultBytes, DecodeSim), and a tune session is a
// live tune.Search (`polytune search -daemon`), whose evaluator makes the
// same calls. A session's first run computes its cells (misses: simulate,
// attribute, encode, put); its reRuns re-runs are served from the cache
// (hits).
type serviceMix struct {
	srv   *server.Server
	pool  *jobqueue.Pool
	hs    *http.Server
	serve chan struct{} // closed when the HTTP server goroutine returns
	base  string
	tr    *http.Transport
	info  map[string]benchInfo
	ref   reference

	fresh bool // the daemon has served no pass yet

	// Traced-window bookkeeping, guarded by mu.
	mu                       sync.Mutex
	pollLag, polls           float64
	requests, rejected, hits int
	simBytes                 float64
	missRetired              float64
}

// benchInfo is what a client needs to predict a cell's artifact key: the
// bench's identity.
type benchInfo struct {
	sha       string
	maxInstrs int
}

func (s *serviceMix) setup(e *env, t *tracer) error {
	if s.ref == nil {
		var err error
		if s.ref, err = loadReference(); err != nil {
			return err
		}
	}
	speculate.ClearBenchCache()
	if err := s.start(e); err != nil {
		return err
	}
	// Preload every trace through the API, as a fleet worker would.
	names := speculate.AllWorkloadNames()
	errs := make([]error, len(names))
	e.parallel(len(names), func(l, i int) {
		cl := &server.Client{Base: s.base, HTTP: &http.Client{Transport: s.tr}}
		sp := t.start(lane(l), e.op(), "setup", "server.Client.Trace")
		_, errs[i] = cl.Trace(context.Background(), names[i])
		sp.end(0)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("preloading traces: %w", err)
	}
	// The daemon shares this process's bench memo, so these loads are hits.
	s.info = map[string]benchInfo{}
	for _, n := range names {
		b, _, err := speculate.LoadCached(n, nil)
		if err != nil {
			return err
		}
		s.info[n] = benchInfo{sha: b.SourceSHA, maxInstrs: b.MaxInstrs}
	}
	return nil
}

// start replaces the daemon with a fresh one: a 2-worker pool and an
// empty memory cache, on a new loopback listener. Traces stay loaded, in
// the process's bench memo the daemon shares.
func (s *serviceMix) start(e *env) error {
	s.close()
	s.pool = jobqueue.New(jobqueue.Config{Workers: e.workers, QueueDepth: 64})
	cache, err := artifact.New(artifact.Options{MemEntries: 4096})
	if err != nil {
		return err
	}
	if s.srv, err = server.New(server.Config{Pool: s.pool, Cache: cache, MaxJobs: 1024}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.serve = make(chan struct{})
	go func() {
		defer close(s.serve)
		s.hs.Serve(ln)
	}()
	s.tr = &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}
	s.fresh = true
	return nil
}

// window runs passes until d has passed. A pass runs every session once,
// in a seeded order, on a daemon whose cache starts empty, so every pass
// serves the same callers' traffic; a daemon that served a pass is
// replaced before the next, outside the timed wall. The window ends at
// the first request after d, mid-pass.
func (s *serviceMix) window(e *env, t *tracer, d time.Duration, w *window) error {
	s.mu.Lock()
	s.pollLag, s.polls, s.requests, s.rejected, s.hits, s.simBytes, s.missRetired = 0, 0, 0, 0, 0, 0, 0
	s.mu.Unlock()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if !s.fresh {
			if err := s.start(e); err != nil {
				return err
			}
		}
		s.fresh = false
		t0 := time.Now()
		s.pass(e, t, w, deadline)
		w.wall += time.Since(t0)
		w.passDone()
	}
	return nil
}

// pass drains one pass's session queue on e.workers closed-loop clients.
func (s *serviceMix) pass(e *env, t *tracer, w *window, deadline time.Time) {
	q := newSessionQueue(e.rng, speculate.AllWorkloadNames())
	cells := &cellLedger{cells: map[mixCell]*cellState{}}
	var wg sync.WaitGroup
	for l := 0; l < e.workers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ct := &countingTransport{next: s.tr}
			c := &mixClient{s: s, e: e, t: t, lane: lane(l), ct: ct, w: w, cells: cells, deadline: deadline,
				cl: &server.Client{Base: s.base, HTTP: &http.Client{Transport: ct}}}
			for time.Now().Before(deadline) {
				ss, ok := q.next()
				if !ok {
					return
				}
				c.session(ss)
			}
		}(l)
	}
	wg.Wait()
}

// mixClient is one closed-loop client goroutine of a window.
type mixClient struct {
	s        *serviceMix
	e        *env
	t        *tracer
	lane     string
	cl       *server.Client
	ct       *countingTransport
	w        *window
	cells    *cellLedger // the pass's serving record
	deadline time.Time
}

// errWindowEnd stops a session when its window's time is up; errFailed
// stops it after a failed request, which is already counted.
var (
	errWindowEnd = errors.New("window ended")
	errFailed    = errors.New("request failed")
)

// session runs ss and then re-runs it reRuns times. A re-run of a search
// must repeat the first run's trajectory, as `polytune diff -fail-on-diff`
// requires of CI's two live searches.
func (c *mixClient) session(ss session) {
	var first *tune.Trajectory
	for run := 0; run <= reRuns; run++ {
		if ss.policy == "" {
			if c.grid(ss.bench) != nil {
				return
			}
			continue
		}
		traj, err := tune.Search(context.Background(), &mixEvaluator{c, ss.bench, ss.policy}, tune.Options{Bench: ss.bench, Policy: ss.policy})
		if err != nil {
			if !errors.Is(err, errWindowEnd) && !errors.Is(err, errFailed) {
				c.w.fail("search %+v: %v", ss, err)
			}
			return
		}
		if first == nil {
			first = traj
		} else if diff := tune.Compare(first, traj); diff.Changed() {
			c.w.fail("re-run of search %+v differs: %s", ss, strings.Join(diff.Lines, "; "))
			return
		}
	}
}

// grid requests one bench's grid cells, one after another, as the
// harness's remote cell path does.
func (c *mixClient) grid(bench string) error {
	for _, p := range gridPolicies {
		if _, _, err := c.request(bench, p, ""); err != nil {
			return err
		}
	}
	return nil
}

// mixEvaluator is tune.RemoteEvaluator's request sequence, made through
// the client's instrumented request.
type mixEvaluator struct {
	c             *mixClient
	bench, policy string
}

func (ev *mixEvaluator) Evaluate(ctx context.Context, mask *machine.SpawnMask) (tune.Outcome, error) {
	m := ""
	if mask.Len() > 0 {
		m = mask.Encode()
	}
	art, hit, err := ev.c.request(ev.bench, ev.policy, m)
	if err != nil {
		return tune.Outcome{}, err
	}
	return tune.Outcome{Result: art.Result, Report: art.Attrib, CacheHit: hit}, nil
}

// request runs one closed-loop request and checks what it got back.
func (c *mixClient) request(bench, policy, mask string) (*artifact.SimArtifact, bool, error) {
	if !time.Now().Before(c.deadline) {
		return nil, false, errWindowEnd
	}
	s, t, w, ln := c.s, c.t, c.w, c.lane
	ctx := context.Background()
	cell := mixCell{bench: bench, policy: policy, mask: mask}
	fail := func(format string, args ...any) (*artifact.SimArtifact, bool, error) {
		w.fail("%v: "+format, append([]any{cell}, args...)...)
		return nil, false, errFailed
	}
	warm := c.cells.begin(cell)
	req := server.Request{Bench: bench, Policy: policy, SpawnMask: mask}
	op := c.e.op()
	t0 := time.Now()
	var st server.Status
	rejected := 0
	for {
		sp := t.start(ln, op, "request", "server.Client.Submit")
		var code int
		var err error
		st, code, err = c.cl.Submit(ctx, req)
		sp.end(0)
		if err == nil {
			break
		}
		if code != http.StatusTooManyRequests {
			return fail("submit: %v", err)
		}
		rejected++
		time.Sleep(pollInterval)
	}
	polls0 := c.ct.polls.Load()
	sp := t.start(ln, op, "request", "server.Client.Wait")
	fin, err := c.cl.Wait(ctx, st.ID, pollInterval)
	seen := time.Now()
	sp.end(0)
	if err != nil || fin.State != "succeeded" {
		return fail("wait: state %q error %v %s", fin.State, err, fin.Error)
	}
	polls := c.ct.polls.Load() - polls0
	sp = t.start(ln, op, "request", "server.Client.ResultBytes")
	data, err := c.cl.ResultBytes(ctx, st.ID)
	sp.end(0)
	if err != nil {
		return fail("result: %v", err)
	}
	sp = t.start(ln, op, "request", "artifact.DecodeSim")
	art, err := artifact.DecodeSim(data)
	sp.end(0)
	if err != nil {
		return fail("decode: %v", err)
	}
	lat := time.Since(t0)

	// Correctness gates, outside the op's latency.
	if err := s.check(t, ln, op, c.cells, cell, warm, fin.CacheHit, data, art); err != nil {
		return fail("%v", err)
	}
	w.op(float64(lat.Microseconds())/1000, true, fin.CacheHit)
	if t != nil {
		s.importSpans(t, c.cl, ln, op, st.ID, policy)
	}
	s.mu.Lock()
	s.requests++
	s.rejected += rejected
	if fin.CacheHit {
		s.hits++
	} else {
		s.missRetired += float64(art.Result.Retired)
	}
	s.pollLag += float64(seen.Sub(fin.Finished).Microseconds()) / 1000
	s.polls += float64(polls)
	s.simBytes += float64(len(data))
	s.mu.Unlock()
	return art, fin.CacheHit, nil
}

// check holds a served artifact to the gates: its key names the requested
// bench, policy and mask; the ledger's serving rules hold (see
// cellLedger.served); an unmasked cell of a figure column matches the
// reference.
func (s *serviceMix) check(t *tracer, ln string, op int64, cells *cellLedger, c mixCell, warm, hit bool, data []byte, art *artifact.SimArtifact) error {
	info := s.info[c.bench]
	cfg := machine.PolyFlowConfig()
	if c.policy == "superscalar" {
		cfg = machine.SuperscalarConfig()
	}
	mask, err := machine.ParseSpawnMask(c.mask)
	if err != nil {
		return err
	}
	cfg.SpawnMask = mask
	sp := t.start(ln, op, "check", "artifact.NewSimKey")
	key, err := artifact.NewSimKey(c.bench, info.sha, info.maxInstrs, c.policy, cfg)
	sp.end(0)
	if err != nil {
		return err
	}
	if art.Key != key {
		return fmt.Errorf("artifact key %+v, want %+v", art.Key, key)
	}
	if err := cells.served(c, warm, hit, sha256.Sum256(data)); err != nil {
		return err
	}
	if want, ok := s.ref[c.bench+"/"+c.policy]; ok && c.mask == "" &&
		(art.Result.Cycles != want[0] || art.Result.Retired != want[1]) {
		return fmt.Errorf("(cycles, retired) = (%d, %d), reference %v", art.Result.Cycles, art.Result.Retired, want)
	}
	return nil
}

// importSpans reads the daemon's phase spans for one job back through
// Client.Spans and adds them to the benchmark's timeline.
func (s *serviceMix) importSpans(t *tracer, cl *server.Client, ln string, op int64, id, policy string) {
	ex, err := cl.Spans(context.Background(), id)
	if err != nil {
		return
	}
	for _, sp := range ex.Spans {
		sp.Name = "polyflowd." + sp.Name
		sp.Host = "polyflowd"
		sp.Attrs = map[string]string{"op": fmt.Sprint(op), "parent": "request", "job": id, "policy": policy}
		t.record(sp, 0)
		if sp.Name == "polyflowd.simulate" {
			// The daemon's simulate phase is its RunNamedContext call.
			t.fold("machine.run."+columnClass(policy), sp.Duration(), 0)
		}
	}
}

func (s *serviceMix) extras(w *window, m metrics) {
	splitExtras(m, w)
	s.mu.Lock()
	defer s.mu.Unlock()
	m.set("sim_minstr_per_s", s.missRetired/w.wall.Seconds()/1e6, "Minstr/s")
}

func (s *serviceMix) layers(e *env, tw *window, m metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.requests == 0 {
		return
	}
	n := float64(s.requests)
	m.set("server.poll_lag_ms", s.pollLag/n, "ms")
	m.set("server.polls_per_req", s.polls/n, "count")
	m.set("server.rejected_frac", float64(s.rejected)/(n+float64(s.rejected)), "frac")
	m.set("artifact.sim_bytes", s.simBytes/n, "bytes")
	m.set("artifact.hit_frac", float64(s.hits)/n, "frac")
	m.set("artifact.hit_base", n, "count")
}

func (s *serviceMix) close() {
	if s.hs != nil {
		s.hs.Shutdown(context.Background())
		<-s.serve
		s.srv.Close()
		s.pool.Close()
		s.tr.CloseIdleConnections()
		s.hs = nil
	}
}

// countingTransport counts job-status polls (GET /v1/jobs/{id}).
type countingTransport struct {
	next  http.RoundTripper
	polls atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
		!strings.Contains(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/") {
		c.polls.Add(1)
	}
	return c.next.RoundTrip(r)
}

// mixCell is one requested simulation cell.
type mixCell struct{ bench, policy, mask string }

// session is one caller's request sequence: a grid of one bench (policy
// "") or a search of one (bench, policy) pair with polytune search's
// defaults.
type session struct{ bench, policy string }

// sessionQueue hands out one pass's sessions in a seeded order: a grid per
// bench and a search per (bench, tune policy). Safe for concurrent use.
type sessionQueue struct {
	mu    sync.Mutex
	queue []session
}

func newSessionQueue(rng *rand.Rand, names []string) *sessionQueue {
	var all []session
	for _, b := range names {
		all = append(all, session{bench: b})
		for _, p := range tunePolicies {
			all = append(all, session{bench: b, policy: p})
		}
	}
	q := &sessionQueue{}
	for _, i := range rng.Perm(len(all)) {
		q.queue = append(q.queue, all[i])
	}
	return q
}

func (q *sessionQueue) next() (session, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		return session{}, false
	}
	ss := q.queue[0]
	q.queue = q.queue[1:]
	return ss, true
}

// cellLedger records what the daemon served for each cell. Safe for
// concurrent use.
type cellLedger struct {
	mu    sync.Mutex
	cells map[mixCell]*cellState
}

type cellState struct {
	begun  int      // requests made
	done   bool     // a serving has completed
	served bool     // sum is set
	sum    [32]byte // digest of the first bytes served
}

// begin records a request for c. It reports whether a serving of c has
// completed, so that this request must be a hit.
func (l *cellLedger) begin(c mixCell) (warm bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.cells[c]
	if st == nil {
		st = &cellState{}
		l.cells[c] = st
	}
	st.begun++
	return st.done
}

// served records one serving of c and holds it to the rules: a request
// made after a serving of the cell completed (warm) is a hit; a cell
// requested only once so far is a miss, since the pass's daemon started
// empty; every serving's bytes equal the first's. Requests that overlap
// the cell's first compute share it and may report either.
func (l *cellLedger) served(c mixCell, warm, hit bool, sum [32]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.cells[c]
	if !st.served {
		st.served, st.sum = true, sum
	}
	st.done = true
	switch {
	case hit && st.begun == 1:
		return errors.New("a fresh daemon served the cell's only request from its cache")
	case warm && !hit:
		return errors.New("a repeat of a served cell was not a cache hit")
	case sum != st.sum:
		return errors.New("served bytes differ from the bytes first served for the cell")
	}
	return nil
}
