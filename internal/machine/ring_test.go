package machine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/trace"
)

// ringRun is one simulation with its slot ring observed after the run.
type ringRun struct {
	res     Result
	rep     *attrib.Report
	ringLen int // slots at the end of the run
	hi      int // highest initialized index + 1
}

// runRing simulates tr under postdoms with the ring forced to size slots
// (a power of two), or sized by ringSize(cfg) when size is 0.
func runRing(t *testing.T, tr *trace.Trace, a *core.Analysis, cfg Config, size int) ringRun {
	t.Helper()
	cfg.Attribution = attrib.NewTable()
	s := newSim(tr, nil, core.PolicyPostdoms.Source(a), cfg)
	defer s.release()
	if size > 0 {
		s.ring, s.ringMask = make([]slot, size), size-1
	}
	res, err := s.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttribution(cfg.Attribution, res); err != nil {
		t.Fatal(err)
	}
	return ringRun{
		res:     res,
		rep:     attrib.NewReport(cfg.Attribution, "hammock", "postdoms", cfg.Name, res.Cycles, res.Retired),
		ringLen: len(s.ring),
		hi:      s.hi,
	}
}

// wideWindowConfig spreads tasks far apart: 16 tasks, any of which may
// spawn, up to 1024 instructions ahead, with deep fetch buffers.
func wideWindowConfig() Config {
	c := PolyFlowConfig()
	c.MaxTasks = 16
	c.MaxSpawnDistance = 1024
	c.FetchBufPerTask = 128
	c.SpawnFromTailOnly = false
	return c
}

// TestRingWrapAndGrowth holds the slot ring to the trace-length arrays it
// replaced: a one-slot ring that must wrap and grow, a ring at least as
// long as the trace that never wraps, and the Config-derived ring must
// all give the identical Result and attribution report, under both
// schedulers, with and without a warm prefix.
func TestRingWrapAndGrowth(t *testing.T) {
	_, tr, a := prep(t, hardHammockLoop)
	whole := 1
	for whole < tr.Len() {
		whole <<= 1
	}
	configs := diffConfigs()
	configs["wide-window"] = wideWindowConfig()
	for cname, cfg := range configs {
		for _, warm := range []int{0, tr.Len() / 4} {
			cfg.WarmupInstrs = warm
			t.Run(fmt.Sprintf("%s/warm=%d", cname, warm), func(t *testing.T) {
				var want *ringRun
				for _, polled := range []bool{false, true} {
					cfg.PolledScheduler = polled
					derived := runRing(t, tr, a, cfg, 0)
					if derived.ringLen != ringSize(cfg) {
						t.Errorf("polled=%v: derived ring grew from %d to %d slots", polled, ringSize(cfg), derived.ringLen)
					}
					if derived.hi <= derived.ringLen {
						t.Errorf("polled=%v: derived ring of %d slots never wrapped (hi %d)", polled, derived.ringLen, derived.hi)
					}
					tiny := runRing(t, tr, a, cfg, 1)
					if tiny.ringLen == 1 || tiny.hi <= tiny.ringLen {
						t.Errorf("polled=%v: one-slot ring ended at %d slots, hi %d: want growth and wrap", polled, tiny.ringLen, tiny.hi)
					}
					full := runRing(t, tr, a, cfg, whole)
					if full.ringLen != whole || full.hi > whole {
						t.Errorf("polled=%v: trace-length ring ended at %d slots, hi %d", polled, full.ringLen, full.hi)
					}
					if want == nil {
						want = &derived
					}
					for name, got := range map[string]ringRun{"derived": derived, "one-slot": tiny, "trace-length": full} {
						if !reflect.DeepEqual(got.res, want.res) {
							t.Errorf("polled=%v %s ring: result differs:\ngot:  %+v\nwant: %+v", polled, name, got.res, want.res)
						}
						if !reflect.DeepEqual(got.rep, want.rep) {
							t.Errorf("polled=%v %s ring: attribution differs:\ngot:  %+v\nwant: %+v", polled, name, got.rep, want.rep)
						}
					}
				}
				if want.res.SpawnsTaken == 0 && cname == "polyflow" {
					t.Fatal("no spawns: the ring never held more than one task's window")
				}
			})
		}
	}
}

// TestRingSizedByConfig: the run's slot storage is ringSize(cfg) whatever
// the trace length, the derived sizes stay small, and a slot fills exactly
// one cache line.
func TestRingSizedByConfig(t *testing.T) {
	programs := map[string]string{
		"short":   straightLine(20),
		"hammock": hardHammockLoop,
		"memViol": interTaskMemProgram,
	}
	for pname, src := range programs {
		_, tr, a := prep(t, src)
		for cname, cfg := range map[string]Config{
			"polyflow":    PolyFlowConfig(),
			"superscalar": SuperscalarConfig(),
			"wide-window": wideWindowConfig(),
		} {
			got := runRing(t, tr, a, cfg, 0).ringLen
			if got != ringSize(cfg) {
				t.Errorf("%s/%s (%d entries): ring has %d slots, want ringSize %d", pname, cname, tr.Len(), got, ringSize(cfg))
			}
		}
	}
	if sz := unsafe.Sizeof(slot{}); sz != 64 {
		t.Errorf("slot is %d bytes, want one 64-byte cache line", sz)
	}
	if got := ringSize(PolyFlowConfig()); got != 4096 {
		t.Errorf("ringSize(PolyFlowConfig()) = %d, want 4096", got)
	}
	if got := ringSize(SuperscalarConfig()); got != 2048 {
		t.Errorf("ringSize(SuperscalarConfig()) = %d, want 2048", got)
	}
}

// TestRingKeepsRetiredReads drives extend directly: the slot of a retired
// mispredicted branch still awaiting redirect, or of a queued violation's
// retired store, is never recycled — the batch shortens, then the ring
// grows — while as a producer it reads as retired at cycle 0.
func TestRingKeepsRetiredReads(t *testing.T) {
	_, tr, _ := prep(t, straightLine(600))
	for _, via := range []string{"redirect", "violation"} {
		t.Run(via, func(t *testing.T) {
			s := newSim(tr, nil, nil, PolyFlowConfig())
			defer s.release()
			s.ring, s.ringMask = make([]slot, 64), 63
			s.extend(0)
			s.at(10).doneC = 77
			s.retireIdx = 40
			if via == "redirect" {
				s.tasks[0].pendingRedirect = 10
			} else {
				s.viols = append(s.viols, violation{load: 12, store: 10, detect: 77})
			}
			s.extend(70) // may recycle indices 0..9 only
			if s.hi != 74 || len(s.ring) != 64 {
				t.Fatalf("after extend(70): hi %d, %d slots; want a batch cut to hi 74 in 64 slots", s.hi, len(s.ring))
			}
			s.extend(74) // would recycle index 10: grow instead
			if len(s.ring) != 128 {
				t.Fatalf("after extend(74): %d slots, want growth to 128", len(s.ring))
			}
			if got := s.at(10).doneC; got != 77 {
				t.Errorf("index 10's slot holds done cycle %d, want its own 77", got)
			}
			if got := s.doneOf(10); got != 0 {
				t.Errorf("retired producer 10 reads done cycle %d, want 0", got)
			}
		})
	}
}
