package machine

import (
	"testing"

	"repro/internal/core"
)

// TestHintCacheCapacity: a tiny hint cache must cost spawn opportunities
// (misses > 0, spawns fewer than with the unmodeled cache), while a large
// one converges to the unmodeled behaviour after compulsory misses.
func TestHintCacheCapacity(t *testing.T) {
	_, tr, a := prep(t, hardHammockLoop)
	src := func() core.Source { return core.PolicyPostdoms.Source(a) }

	ideal, err := Run(tr, nil, src(), PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}

	tiny := PolyFlowConfig()
	tiny.HintCacheLog2 = 1 // 2 entries: aliasing guaranteed
	small, err := Run(tr, nil, src(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if small.HintMisses == 0 {
		t.Fatalf("2-entry hint cache never missed")
	}

	big := PolyFlowConfig()
	big.HintCacheLog2 = 12
	large, err := Run(tr, nil, src(), big)
	if err != nil {
		t.Fatal(err)
	}
	if large.HintMisses > 16 {
		t.Fatalf("4096-entry hint cache missed %d times for a handful of static spawn points",
			large.HintMisses)
	}
	if large.SpawnsTaken < ideal.SpawnsTaken-int64(large.HintMisses)-8 {
		t.Fatalf("large hint cache lost spawns: %d vs ideal %d",
			large.SpawnsTaken, ideal.SpawnsTaken)
	}
	if ideal.HintMisses != 0 {
		t.Fatalf("unmodeled hint cache recorded misses")
	}
}

// TestHintCacheConflict: two spawn points aliasing to the same direct-mapped
// entry keep evicting each other.
func TestHintCacheConflict(t *testing.T) {
	_, tr, a := prep(t, hardHammockLoop)
	cfg := PolyFlowConfig()
	cfg.HintCacheLog2 = 1
	res, err := Run(tr, nil, core.PolicyPostdoms.Source(a), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With several static spawn points revisited thousands of times and
	// only 2 entries, misses must recur (not just compulsory).
	if res.HintMisses < 100 {
		t.Fatalf("conflict misses = %d, expected recurring eviction", res.HintMisses)
	}
}

// TestROBReserveAvoidsDeadlock documents why the head-task ROB reserve
// exists: without it, younger tasks can fill the shared reorder buffer and
// — since retirement is blocked behind the head's undispatched instructions
// — the machine deadlocks. The progress watchdog catches it.
func TestROBReserveAvoidsDeadlock(t *testing.T) {
	_, tr, a := prep(t, hardHammockLoop)
	cfg := PolyFlowConfig()
	cfg.ROBSize = 48
	cfg.ROBReserve = 0
	cfg.MaxCycles = 2_000_000
	if _, err := Run(tr, nil, core.PolicyPostdoms.Source(a), cfg); err == nil {
		t.Skip("no deadlock manifested at this ROB size; reserve untestable here")
	}
}

// TestReclaimROB: the paper's future-work extension — reclaiming the
// youngest task's entries when the head is starved — replaces the reserve:
// with no reserve at all, reclamation keeps the machine live and everything
// retires.
func TestReclaimROB(t *testing.T) {
	_, tr, a := prep(t, hardHammockLoop)

	cfg := PolyFlowConfig()
	cfg.ROBSize = 48
	cfg.ROBReserve = 0
	cfg.MaxCycles = 1 << 30
	cfg.ReclaimROB = true
	withReclaim, err := Run(tr, nil, core.PolicyPostdoms.Source(a), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withReclaim.Retired != int64(tr.Len()) {
		t.Fatalf("reclamation lost instructions: %d of %d", withReclaim.Retired, tr.Len())
	}
	if withReclaim.Reclaims == 0 {
		t.Fatalf("starved reserve-less ROB never triggered reclamation")
	}

	// Sanity: the default (reserved) configuration never reclaims.
	def, err := Run(tr, nil, core.PolicyPostdoms.Source(a), PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if def.Reclaims != 0 {
		t.Fatalf("reclamation fired while disabled")
	}
}

// TestReclaimROBDisabledByDefault guards the paper-faithful default.
func TestReclaimROBDisabledByDefault(t *testing.T) {
	if PolyFlowConfig().ReclaimROB || PolyFlowConfig().HintCacheLog2 != 0 {
		t.Fatalf("extensions must be off in the paper configuration")
	}
}

// TestIPCSampling: the sampled timeline covers the run and averages to
// roughly the final IPC.
func TestIPCSampling(t *testing.T) {
	_, tr, _ := prep(t, hardHammockLoop)
	cfg := SuperscalarConfig()
	cfg.SampleInterval = 512
	res, err := Run(tr, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPCSamples) < 10 {
		t.Fatalf("samples = %d, want many", len(res.IPCSamples))
	}
	var sum float64
	for _, v := range res.IPCSamples {
		if v < 0 || v > float64(cfg.Width) {
			t.Fatalf("implausible sample %f", v)
		}
		sum += v
	}
	avg := sum / float64(len(res.IPCSamples))
	if avg < res.IPC*0.8 || avg > res.IPC*1.2 {
		t.Fatalf("sample average %.3f far from final IPC %.3f", avg, res.IPC)
	}
	// Sampling off by default.
	plain, err := Run(tr, nil, nil, SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.IPCSamples != nil {
		t.Fatalf("samples recorded without SampleInterval")
	}
}
