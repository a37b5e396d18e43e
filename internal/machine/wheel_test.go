package machine

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/attrib"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// slowL2Hierarchy is the default hierarchy with a 1000-cycle L2 miss: a
// load that misses both levels is ready 1012 cycles after it issues, far
// beyond the default 128-bucket wheel.
func slowL2Hierarchy() *cachesim.Hierarchy {
	l2 := cachesim.New(cachesim.Config{SizeBytes: 512 << 10, Assoc: 8, LineBytes: 128, MissLatency: 1000}, nil)
	return &cachesim.Hierarchy{
		L1I: cachesim.New(cachesim.Config{SizeBytes: 8 << 10, Assoc: 2, LineBytes: 128, MissLatency: 10}, l2),
		L1D: cachesim.New(cachesim.Config{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, MissLatency: 10}, l2),
		L2:  l2,
	}
}

func TestWheelSizeFollowsHierarchy(t *testing.T) {
	if got := wheelSize(cachesim.DefaultHierarchy()); got != 128 {
		t.Errorf("default hierarchy (worst load 112 cycles): wheel of %d buckets, want 128", got)
	}
	if got := wheelSize(slowL2Hierarchy()); got != 1024 {
		t.Errorf("1000-cycle L2 (worst load 1012 cycles): wheel of %d buckets, want 1024", got)
	}
	tiny := cachesim.New(cachesim.Config{SizeBytes: 64, Assoc: 1, LineBytes: 64, MissLatency: 1}, nil)
	h := &cachesim.Hierarchy{L1I: tiny, L1D: tiny, L2: tiny}
	if got := wheelSize(h); got != 32 {
		t.Errorf("1-cycle cache (syscall's 24 cycles dominate): wheel of %d buckets, want 32", got)
	}
}

// TestWheelHorizonDifferential runs the event-vs-polled differential with
// an L2 miss latency beyond the default wheel's horizon: the wheel derived
// from the hierarchy in use must give the polled reference's Result and
// attribution exactly.
func TestWheelHorizonDifferential(t *testing.T) {
	programs := map[string]string{
		"hammock": hardHammockLoop,
		"memViol": interTaskMemProgram,
	}
	for pname, src := range programs {
		_, tr, a := prep(t, src)
		for cname, cfg := range diffConfigs() {
			t.Run(pname+"/"+cname, func(t *testing.T) {
				run := func(polled bool) (Result, *attrib.Report) {
					c := cfg
					c.WarmupInstrs = 0
					c.Caches = slowL2Hierarchy() // caches carry state: one per run
					c.PolledScheduler = polled
					c.Attribution = attrib.NewTable()
					res, err := Run(tr, nil, core.PolicyPostdoms.Source(a), c)
					if err != nil {
						t.Fatal(err)
					}
					return res, attrib.NewReport(c.Attribution, pname, "postdoms", c.Name, res.Cycles, res.Retired)
				}
				event, eventRep := run(false)
				polled, polledRep := run(true)
				if event.L2Misses == 0 {
					t.Fatal("no L2 miss: the long latency was never exercised")
				}
				if !reflect.DeepEqual(event, polled) {
					t.Errorf("schedulers diverge:\nevent:  %+v\npolled: %+v", event, polled)
				}
				if !reflect.DeepEqual(eventRep, polledRep) {
					t.Errorf("attribution diverges:\nevent:  %+v\npolled: %+v", eventRep, polledRep)
				}
			})
		}
	}
}

// fetchRuleDigests pin the complete telemetry event stream of a
// FetchTasksPerCycle=1 PolyFlow run. Fetch examines a younger task only
// when the head leaves a slot, and examining a task resolves its pending
// redirect (an EvBranchResolve event), so any change to which tasks fetch
// looks at, or in what order, moves these digests. They were recorded
// before fetch evaluated each task's eligibility once per cycle.
var fetchRuleDigests = map[string]string{
	"hammock": "aae4daa90d4774ce86b1f33e0a01d512e898a336164251b1404df6e81b669d0e",
	"memViol": "451aae131de08797c74e6338b3d285d0018aab207241fd603d6a4607a271ce75",
}

func TestFetchRuleEventStream(t *testing.T) {
	programs := map[string]string{
		"hammock": hardHammockLoop,
		"memViol": interTaskMemProgram,
	}
	for pname, src := range programs {
		t.Run(pname, func(t *testing.T) {
			_, tr, a := prep(t, src)
			cfg := PolyFlowConfig()
			cfg.FetchTasksPerCycle = 1
			col := telemetry.NewCollector(telemetry.Config{TraceEvents: 1 << 18})
			cfg.Telemetry = col
			res, err := Run(tr, nil, core.PolicyPostdoms.Source(a), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if col.Tracer.Dropped() != 0 {
				t.Fatalf("tracer dropped %d events; enlarge it", col.Tracer.Dropped())
			}
			h := sha256.New()
			resolves := 0
			for _, e := range col.Tracer.Events() {
				fmt.Fprintf(h, "%d %d %d %d %d\n", e.Cycle, e.Kind, e.Task, e.A, e.B)
				if e.Kind == telemetry.EvBranchResolve {
					resolves++
				}
			}
			fmt.Fprintf(h, "%+v\n", res)
			if res.PeakTasks < 2 || resolves == 0 {
				t.Fatalf("peak %d tasks, %d branch resolutions: the fetch choice is not exercised", res.PeakTasks, resolves)
			}
			if got, want := fmt.Sprintf("%x", h.Sum(nil)), fetchRuleDigests[pname]; got != want {
				t.Errorf("event stream digest %s, want %s", got, want)
			}
		})
	}
}

// TestWatchdogDroppedWakeup drops one pending wakeup mid-run — the kind of
// scheduler bug that used to spin until MaxCycles — and requires the
// progress watchdog to stop the run within its bound with a pointed
// report.
func TestWatchdogDroppedWakeup(t *testing.T) {
	_, tr, _ := prep(t, hardHammockLoop)
	cfg := SuperscalarConfig() // one task: nothing can squash and re-wake the victim
	s := newSim(tr, nil, nil, cfg)
	defer s.release()

	// Run a while, then pause on the MaxCycles guard at the first cycle
	// with a pending wakeup.
	victim := -1
	for pause := int64(2000); victim < 0; pause++ {
		if pause > 3000 {
			t.Fatal("no pending wakeup at any pause")
		}
		s.cfg.MaxCycles = pause
		if _, err := s.run(context.Background()); err == nil || errors.Is(err, ErrStalled) {
			t.Fatalf("pause at cycle %d: want the MaxCycles error, got %v", pause, err)
		}
		for _, b := range s.wheel {
			for _, i := range b {
				if sl := s.at(int(i)); sl.state == stInSched && sl.pendCnt == 0 && (victim < 0 || int(i) < victim) {
					victim = int(i)
				}
			}
		}
	}
	for k, b := range s.wheel {
		kept := b[:0]
		for _, i := range b {
			if int(i) != victim {
				kept = append(kept, i)
			}
		}
		s.wheel[k] = kept
	}

	paused := s.cycle
	s.cfg.MaxCycles = 1 << 40
	_, err := s.run(context.Background())
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("dropped wakeup of %d: want ErrStalled, got %v", victim, err)
	}
	if s.cycle-paused > s.stallLimit+1 {
		t.Errorf("watchdog fired %d cycles after the drop, limit %d", s.cycle-paused, s.stallLimit)
	}
	msg := err.Error()
	t.Log(msg)
	for _, want := range []string{
		fmt.Sprintf("at cycle %d", s.cycle),
		"task 0 start=",
		fmt.Sprintf("ROB head %d: in-scheduler", victim),
		"wheel bucket", "readyQ", "divert queue",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog report lacks %q:\n%s", want, msg)
		}
	}
}

// TestConcurrentRunsShareStaticSource runs cells concurrently on one trace
// (whose occurrence index is built lazily by whichever run needs it first)
// and one *core.StaticSource: the source and the index are read-only, so
// every run must match a sequential one. CI runs it under -race -count=10.
func TestConcurrentRunsShareStaticSource(t *testing.T) {
	_, tr, a := prep(t, hardHammockLoop)
	_, tr2, _ := prep(t, hardHammockLoop) // fresh: no occurrence index yet
	src := core.PolicyPostdoms.Source(a)
	want, err := Run(tr, nil, src, PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = Run(tr2, nil, src, PolyFlowConfig())
		}(w)
	}
	wg.Wait()
	for w := range results {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(results[w], want) {
			t.Errorf("worker %d diverges:\ngot:  %+v\nwant: %+v", w, results[w], want)
		}
	}
}

// TestEventReadyRejectsRetiredIndex: a stale wheel entry can outlive its
// instruction's retirement, by which time the instruction's slot may hold
// a younger index that is ready to issue. eventReady must judge the entry
// by its own index, not by whatever its slot now holds.
func TestEventReadyRejectsRetiredIndex(t *testing.T) {
	_, tr, _ := prep(t, straightLine(600))
	s := newSim(tr, nil, nil, PolyFlowConfig())
	defer s.release()
	s.ring, s.ringMask = make([]slot, 64), 63
	s.extend(0)
	s.retireIdx = 40
	s.extend(70) // recycles the slots of retired indices 0..39
	sl := s.at(70)
	sl.state, sl.pendCnt, sl.readyAt, sl.dispC = stInSched, 0, 3, 2
	s.cycle = 5
	if !s.eventReady(70) {
		t.Fatal("index 70 is ready, eventReady says no")
	}
	if s.eventReady(70 - 64) {
		t.Error("retired index 6 reads as ready through index 70's recycled slot")
	}
}
