package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submit is a test helper that fails the test on submission error.
func submit(t *testing.T, p *Pool, j Job) *Handle {
	t.Helper()
	h, err := p.Submit(j)
	if err != nil {
		t.Fatalf("Submit(%q): %v", j.ID, err)
	}
	return h
}

func TestRunsAllJobs(t *testing.T) {
	p := New(Config{Workers: 4, QueueDepth: 128})
	defer p.Close()
	var n atomic.Int64
	var hs []*Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, submit(t, p, Job{
			ID: fmt.Sprintf("j%d", i),
			Fn: func(ctx context.Context) error { n.Add(1); return nil },
		}))
	}
	for _, h := range hs {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", h.ID(), err)
		}
		if h.State() != Succeeded {
			t.Fatalf("job %s state = %v, want Succeeded", h.ID(), h.State())
		}
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
	st := p.Stats()
	if st.Succeeded != 100 || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackpressureRejectsWhenFull(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 2})
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := submit(t, p, Job{ID: "blocker", Fn: func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}})
	<-started // worker occupied; queue is empty again
	submit(t, p, Job{ID: "q1", Fn: func(ctx context.Context) error { return nil }})
	submit(t, p, Job{ID: "q2", Fn: func(ctx context.Context) error { return nil }})
	if _, err := p.Submit(Job{ID: "q3", Fn: func(ctx context.Context) error { return nil }}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue = %v, want ErrQueueFull", err)
	}
	if got := p.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	close(release)
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitWaitRidesOutFullQueue: SubmitWait retries ErrQueueFull until
// a slot frees, gives up when its context ends, and labels any other
// rejection with the job's ID.
func TestSubmitWaitRidesOutFullQueue(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1})
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := submit(t, p, Job{ID: "blocker", Fn: func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}})
	<-started
	noop := func(ctx context.Context) error { return nil }
	submit(t, p, Job{ID: "q1", Fn: noop})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.SubmitWait(ctx, Job{ID: "late", Fn: noop}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitWait on a stuck full queue = %v, want DeadlineExceeded", err)
	}

	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	h, err := p.SubmitWait(context.Background(), Job{ID: "q2", Fn: noop})
	if err != nil {
		t.Fatalf("SubmitWait after the queue drains: %v", err)
	}
	for _, h := range []*Handle{blocker, h} {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = p.SubmitWait(context.Background(), Job{ID: "drained", Fn: noop})
	if !errors.Is(err, ErrDraining) || !strings.Contains(err.Error(), "drained") {
		t.Fatalf("SubmitWait on a draining pool = %v, want ErrDraining labeled with the job ID", err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 16})
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	submit(t, p, Job{ID: "blocker", Fn: func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}})
	<-started

	var mu sync.Mutex
	var order []string
	mk := func(id string, prio int) Job {
		return Job{ID: id, Priority: prio, Fn: func(ctx context.Context) error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}}
	}
	// Submitted low, high, mid, high2: must run high, high2 (FIFO within
	// priority), mid, low.
	hs := []*Handle{
		submit(t, p, mk("low", 0)),
		submit(t, p, mk("high", 2)),
		submit(t, p, mk("mid", 1)),
		submit(t, p, mk("high2", 2)),
	}
	close(release)
	for _, h := range hs {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"high", "high2", "mid", "low"}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 16})
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	submit(t, p, Job{ID: "blocker", Fn: func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}})
	<-started
	ran := false
	h := submit(t, p, Job{ID: "victim", Fn: func(ctx context.Context) error {
		ran = true
		return nil
	}})
	h.Cancel()
	if err := h.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	if h.State() != Canceled {
		t.Fatalf("state = %v, want Canceled", h.State())
	}
	close(release)
	p.Drain(context.Background())
	if ran {
		t.Fatal("canceled queued job still ran")
	}
}

func TestCancelRunningJob(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 4})
	defer p.Close()
	started := make(chan struct{})
	h := submit(t, p, Job{ID: "spin", Fn: func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	<-started
	h.Cancel()
	if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if h.State() != Canceled {
		t.Fatalf("state = %v, want Canceled", h.State())
	}
}

func TestJobTimeout(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 4})
	defer p.Close()
	h := submit(t, p, Job{ID: "slow", Timeout: 5 * time.Millisecond, Fn: func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	if err := h.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
}

func TestPanicIsIsolated(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 4})
	defer p.Close()
	h := submit(t, p, Job{ID: "boom", Fn: func(ctx context.Context) error { panic("kaboom") }})
	err := h.Wait(context.Background())
	if err == nil || h.State() != Failed {
		t.Fatalf("panicking job: err=%v state=%v, want Failed", err, h.State())
	}
	// The worker survived: the next job still runs.
	h2 := submit(t, p, Job{ID: "after", Fn: func(ctx context.Context) error { return nil }})
	if err := h2.Wait(context.Background()); err != nil {
		t.Fatalf("job after panic: %v", err)
	}
}

func TestDrainWaitsForAcceptedJobs(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 64})
	defer p.Close()
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		submit(t, p, Job{ID: fmt.Sprintf("d%d", i), Fn: func(ctx context.Context) error {
			time.Sleep(time.Millisecond)
			n.Add(1)
			return nil
		}})
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n.Load() != 20 {
		t.Fatalf("drained with %d/20 jobs done", n.Load())
	}
	if _, err := p.Submit(Job{ID: "late", Fn: func(ctx context.Context) error { return nil }}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsRemainder(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 16})
	defer p.Close()
	started := make(chan struct{})
	running := submit(t, p, Job{ID: "hog", Fn: func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	<-started
	queued := submit(t, p, Job{ID: "stuck", Fn: func(ctx context.Context) error { return nil }})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	if err := running.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("running job err = %v, want context.Canceled", err)
	}
	if err := queued.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("queued job err = %v, want ErrCanceled", err)
	}
}

func TestDefaultsUseGOMAXPROCS(t *testing.T) {
	p := New(Config{})
	defer p.Close()
	if got := p.Stats().Workers; got <= 0 {
		t.Fatalf("default workers = %d", got)
	}
}
