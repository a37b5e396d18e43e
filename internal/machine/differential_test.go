package machine

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/reconv"
)

// diffConfigs are machine configurations chosen to stress every structural
// difference between the polled and event-driven schedulers: violation
// squashes (wake/watch unlinking), divert pressure (late producer
// registration), ROB reclaim (mid-flight task teardown), a finite hint
// cache, and a scheduler small enough to make issue-order priority matter.
func diffConfigs() map[string]Config {
	tiny := PolyFlowConfig()
	tiny.SchedSize = 12
	tiny.SchedReserve = 4
	tiny.NumFUs = 3

	reclaim := PolyFlowConfig()
	reclaim.ReclaimROB = true
	reclaim.ROBSize = 96
	reclaim.ROBReserve = 16

	hint := PolyFlowConfig()
	hint.HintCacheLog2 = 2

	divert := PolyFlowConfig()
	divert.DivertQSize = 8

	return map[string]Config{
		"polyflow":   PolyFlowConfig(),
		"tiny-sched": tiny,
		"reclaim":    reclaim,
		"hint-cache": hint,
		"divert-8":   divert,
	}
}

// TestEventPolledDifferential runs violation-heavy and divert-heavy
// workloads under every stress configuration with both scheduler
// implementations and requires bit-identical Results.
func TestEventPolledDifferential(t *testing.T) {
	programs := map[string]string{
		"hammock":  hardHammockLoop,
		"memViol":  interTaskMemProgram,
		"straight": straightLine(600),
	}
	for pname, src := range programs {
		_, tr, a := prep(t, src)
		for cname, cfg := range diffConfigs() {
			t.Run(pname+"/"+cname, func(t *testing.T) {
				cfg.WarmupInstrs = 0
				event, err := Run(tr, nil, core.PolicyPostdoms.Source(a), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.PolledScheduler = true
				polled, err := Run(tr, nil, core.PolicyPostdoms.Source(a), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(event, polled) {
					t.Errorf("schedulers diverge:\nevent:  %+v\npolled: %+v", event, polled)
				}
			})
		}
	}
}

// TestRunSteadyStateAllocs: with the arena pool warm, machine.Run must not
// allocate per-trace-entry state — only a fixed handful of small setup
// allocations (predictors, store sets, the sim itself) may remain. The
// superscalar run has no spawn source; the postdoms run shares one static
// source across runs, as grid cells do; the rec_pred run builds a fresh
// reconvergence predictor per run, as its cells do, whose tables grow per
// static branch, never per instruction. Timing-wheel buckets come from the
// arena.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	p, tr, a := prep(t, hardHammockLoop)
	static := core.PolicyPostdoms.Source(a)
	cases := []struct {
		name string
		cfg  Config
		src  func() core.Source
	}{
		{"superscalar", SuperscalarConfig(), func() core.Source { return nil }},
		{"postdoms", PolyFlowConfig(), func() core.Source { return static }},
		{"rec_pred", PolyFlowConfig(), func() core.Source {
			return reconv.NewSource(reconv.New(reconv.DefaultConfig()), p)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				if _, err := Run(tr, nil, c.src(), c.cfg); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the arena pool
			allocs := minAllocsPerRun(run)
			// The trace is ~46k entries; per-entry allocation would show up
			// as thousands. The observed steady state is tens of
			// allocations.
			if allocs > 200 {
				t.Fatalf("machine.Run allocates %v objects per run in steady state", allocs)
			}
			t.Logf("%v allocations per run", allocs)
		})
	}
}

// minAllocsPerRun measures AllocsPerRun several times and keeps the
// minimum: a GC that empties the run-arena sync.Pool mid-measurement (much
// likelier under the race runtime) inflates a single attempt, while a real
// per-entry allocation regression inflates every attempt.
func minAllocsPerRun(run func()) float64 {
	best := testing.AllocsPerRun(3, run)
	for i := 0; i < 2; i++ {
		if a := testing.AllocsPerRun(3, run); a < best {
			best = a
		}
	}
	return best
}
