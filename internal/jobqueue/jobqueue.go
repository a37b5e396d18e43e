// Package jobqueue is the repository's one job scheduler: a bounded-queue
// worker pool with priorities, per-job context cancellation and timeouts,
// reject-when-full backpressure, and graceful drain. The polyflowd
// simulation service and the harness figure grids both run on it, so CLI
// batch runs and served traffic share one scheduling discipline.
//
// Semantics:
//
//   - Submit never blocks. A full queue returns ErrQueueFull (the caller
//     turns that into HTTP 429, or waits it out with SubmitWait); a
//     draining pool returns ErrDraining. Accepted jobs always finish:
//     their Handle's Done channel closes exactly once with the job's final
//     state.
//   - Higher Priority runs first; equal priorities run in submission order.
//   - Every job runs under a context derived from the pool's base context,
//     with the job's Timeout (when positive) applied. Handle.Cancel cancels
//     a running job's context, or retires a queued job without running it.
//   - Drain stops intake and waits for every accepted job to finish; when
//     its context expires first, the remainder is canceled. Close after
//     Drain stops the workers.
//
// A panicking job fn is recovered into an error so one bad job cannot take
// down the pool (or the server running on it).
package jobqueue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"
)

// Submission errors. ErrQueueFull is the backpressure signal: the queue is
// at capacity and the job was rejected, not enqueued.
var (
	ErrQueueFull = errors.New("jobqueue: queue full")
	ErrDraining  = errors.New("jobqueue: pool is draining")
	ErrCanceled  = errors.New("jobqueue: job canceled before running")
)

// Config sizes a Pool.
type Config struct {
	// Workers is the number of concurrent workers; <= 0 selects
	// runtime.GOMAXPROCS(0) — the scheduler should never oversubscribe the
	// Go runtime's own parallelism setting.
	Workers int
	// QueueDepth bounds the number of queued (accepted but not yet
	// running) jobs; <= 0 selects 64. Submissions beyond the bound fail
	// with ErrQueueFull.
	QueueDepth int
	// BaseContext is the parent of every job context; nil means
	// context.Background(). Canceling it cancels all running jobs.
	BaseContext context.Context
	// Logger receives pool lifecycle records (job failures and panics,
	// drain); nil disables logging.
	Logger *slog.Logger
}

// Job is one unit of work.
type Job struct {
	// ID labels the job in errors and stats; it need not be unique.
	ID string
	// Priority orders the queue: higher runs first.
	Priority int
	// Timeout bounds the job's run time when positive.
	Timeout time.Duration
	// Fn does the work. It must honor ctx for cancellation to be prompt.
	// Required: Submit rejects a job without one.
	Fn func(ctx context.Context) error
}

// State is a job's lifecycle position.
type State int32

// Lifecycle states. Succeeded/Failed/Canceled are terminal.
const (
	Queued State = iota
	Running
	Succeeded
	Failed
	Canceled
)

// String names the state for status APIs.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Handle tracks one accepted job.
type Handle struct {
	job  Job
	seq  uint64
	pool *Pool

	done chan struct{}

	// Guarded by pool.mu.
	state  State
	index  int // heap index while queued, -1 after
	err    error
	cancel context.CancelFunc // set while running
}

// ID returns the job's label.
func (h *Handle) ID() string { return h.job.ID }

// Done closes when the job reaches a terminal state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// State reports the job's current lifecycle position.
func (h *Handle) State() State {
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	return h.state
}

// Err returns the job's final error (nil on success). Valid after Done
// closes; before that it reports nil.
func (h *Handle) Err() error {
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	return h.err
}

// Wait blocks until the job finishes or ctx expires. Waiting is passive:
// abandoning a Wait does not cancel the job.
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		return h.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel retires a queued job without running it, or cancels a running
// job's context. Terminal jobs are unaffected.
func (h *Handle) Cancel() {
	p := h.pool
	p.mu.Lock()
	switch h.state {
	case Queued:
		heap.Remove(&p.queue, h.index)
		p.stats.Canceled++
		h.finishLocked(Canceled, ErrCanceled)
		p.checkIdleLocked()
		p.mu.Unlock()
	case Running:
		cancel := h.cancel
		p.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		p.mu.Unlock()
	}
}

// finishLocked moves the handle to a terminal state and releases waiters.
// Callers hold pool.mu.
func (h *Handle) finishLocked(s State, err error) {
	if h.state == Succeeded || h.state == Failed || h.state == Canceled {
		return
	}
	h.state = s
	h.err = err
	h.index = -1
	close(h.done)
}

// Stats is a snapshot of pool accounting.
type Stats struct {
	Workers   int
	Queued    int
	Running   int
	Succeeded int64
	Failed    int64
	Canceled  int64
	Rejected  int64
	Draining  bool
}

// Pool is the worker pool. Create with New; it is ready immediately.
type Pool struct {
	workers    int
	queueDepth int
	base       context.Context
	logger     *slog.Logger

	mu          sync.Mutex
	cond        *sync.Cond // work available or pool closing
	queue       jobHeap
	liveRunning map[*Handle]context.CancelFunc
	running     int
	seq         uint64
	draining    bool
	closed      bool
	idleCh      chan struct{} // closed when draining and no work remains
	stats       struct {
		Succeeded, Failed, Canceled, Rejected int64
	}
	wg sync.WaitGroup
}

// New builds and starts a pool.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	p := &Pool{
		workers:     cfg.Workers,
		queueDepth:  cfg.QueueDepth,
		base:        cfg.BaseContext,
		logger:      cfg.Logger,
		liveRunning: map[*Handle]context.CancelFunc{},
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues a job. It never blocks: a full queue returns
// ErrQueueFull, a draining or closed pool ErrDraining. On success the
// returned Handle tracks the job to completion.
func (p *Pool) Submit(j Job) (*Handle, error) {
	if j.Fn == nil {
		return nil, errors.New("jobqueue: job has nil Fn")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining || p.closed {
		p.stats.Rejected++
		return nil, ErrDraining
	}
	if p.queue.Len() >= p.queueDepth {
		p.stats.Rejected++
		return nil, ErrQueueFull
	}
	p.seq++
	h := &Handle{job: j, seq: p.seq, pool: p, done: make(chan struct{}), state: Queued}
	heap.Push(&p.queue, h)
	p.cond.Signal()
	return h, nil
}

// SubmitWait is Submit for batch callers that would rather wait than shed
// load: ErrQueueFull is retried until the job is accepted or ctx ends.
// Any other rejection is returned, labeled with the job's ID.
func (p *Pool) SubmitWait(ctx context.Context, j Job) (*Handle, error) {
	for {
		h, err := p.Submit(j)
		if err == nil {
			return h, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, fmt.Errorf("job %s: %w", j.ID, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Stats snapshots the pool's accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:   p.workers,
		Queued:    p.queue.Len(),
		Running:   p.running,
		Succeeded: p.stats.Succeeded,
		Failed:    p.stats.Failed,
		Canceled:  p.stats.Canceled,
		Rejected:  p.stats.Rejected,
		Draining:  p.draining,
	}
}

// Draining reports whether the pool has stopped accepting jobs.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Drain stops intake and waits until every accepted job has finished.
// When ctx expires first, all remaining jobs are canceled (queued jobs
// retire with ErrCanceled, running jobs get their contexts canceled) and
// Drain returns ctx.Err() after they exit. Drain is idempotent.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	first := !p.draining
	p.draining = true
	if p.idleCh == nil {
		p.idleCh = make(chan struct{})
	}
	idle := p.idleCh
	queued, running := p.queue.Len(), p.running
	p.checkIdleLocked()
	p.mu.Unlock()
	if first && p.logger != nil {
		p.logger.Info("pool draining", "component", "jobqueue", "queued", queued, "running", running)
	}

	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}

	// Deadline passed: cancel everything still in flight, then wait for
	// the workers to come to rest.
	p.mu.Lock()
	for p.queue.Len() > 0 {
		h := heap.Pop(&p.queue).(*Handle)
		p.stats.Canceled++
		h.finishLocked(Canceled, ErrCanceled)
	}
	cancels := make([]context.CancelFunc, 0, len(p.liveRunning))
	for _, cancel := range p.liveRunning {
		cancels = append(cancels, cancel)
	}
	p.checkIdleLocked()
	p.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	<-idle
	return ctx.Err()
}

// checkIdleLocked closes idleCh when a draining pool has no work left.
// Callers hold p.mu.
func (p *Pool) checkIdleLocked() {
	if p.draining && p.queue.Len() == 0 && p.running == 0 && p.idleCh != nil {
		select {
		case <-p.idleCh:
		default:
			close(p.idleCh)
		}
	}
}

// Close drains with no deadline and stops the workers. The pool cannot be
// reused afterwards.
func (p *Pool) Close() {
	p.Drain(context.Background())
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker runs jobs until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.queue.Len() == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.queue.Len() == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		h := heap.Pop(&p.queue).(*Handle)
		h.state = Running
		p.running++
		ctx, cancel := context.WithCancel(p.base)
		h.cancel = cancel
		p.liveRunning[h] = h.cancel
		p.mu.Unlock()

		if h.job.Timeout > 0 {
			var tcancel context.CancelFunc
			ctx, tcancel = context.WithTimeout(ctx, h.job.Timeout)
			err := runJob(ctx, h.job)
			tcancel()
			cancel()
			p.settle(h, err)
			continue
		}
		err := runJob(ctx, h.job)
		cancel()
		p.settle(h, err)
	}
}

// settle records a finished job's outcome and releases its waiters.
func (p *Pool) settle(h *Handle, err error) {
	p.mu.Lock()
	delete(p.liveRunning, h)
	p.running--
	switch {
	case err == nil:
		p.stats.Succeeded++
		h.finishLocked(Succeeded, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		p.stats.Canceled++
		h.finishLocked(Canceled, err)
	default:
		p.stats.Failed++
		h.finishLocked(Failed, err)
		if p.logger != nil {
			p.logger.Warn("job failed", "component", "jobqueue", "job_id", h.job.ID, "error", err.Error())
		}
	}
	p.checkIdleLocked()
	p.mu.Unlock()
}

// runJob calls the job's Fn, converting a panic into an error.
func runJob(ctx context.Context, j Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobqueue: job %q panicked: %v", j.ID, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	return j.Fn(ctx)
}

// jobHeap orders handles by (higher priority, earlier submission).
type jobHeap []*Handle

func (q jobHeap) Len() int { return len(q) }
func (q jobHeap) Less(i, j int) bool {
	if q[i].job.Priority != q[j].job.Priority {
		return q[i].job.Priority > q[j].job.Priority
	}
	return q[i].seq < q[j].seq
}
func (q jobHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *jobHeap) Push(x any) {
	h := x.(*Handle)
	h.index = len(*q)
	*q = append(*q, h)
}
func (q *jobHeap) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	h.index = -1
	*q = old[:n-1]
	return h
}
