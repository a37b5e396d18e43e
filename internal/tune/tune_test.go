package tune

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/artifact"
	"repro/internal/machine"
)

// tuneSrc is a small program with several distinct spawn-site kinds: an
// outer counted loop over a data-dependent hammock, plus a leaf procedure.
// Its postdominator analysis yields enough sites for the search to rank.
const tuneSrc = `
        li   $t9, 800
loop:   andi $t0, $t9, 7
        beq  $t0, $zero, els
        addi $s0, $s0, 1
        add  $s1, $s1, $s0
        j    join
els:    jal  leaf
join:   addi $t9, $t9, -1
        bgtz $t9, loop
        halt
leaf:   addi $s2, $s2, 2
        xor  $s3, $s2, $s0
        jr   $ra
`

func prepBench(t *testing.T) *speculate.Bench {
	t.Helper()
	p, err := speculate.Assemble(tuneSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := speculate.Prepare("tunebench", p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Give the ad-hoc bench a cache identity so evaluator caching engages.
	b.SourceSHA = artifact.SourceSHA(tuneSrc)
	return b
}

func newCache(t *testing.T) *artifact.Cache {
	t.Helper()
	c, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSearchDeterministicAndNeverWorse(t *testing.T) {
	b := prepBench(t)
	opts := Options{Bench: b.Name, Policy: "postdoms", Seed: 7, Rounds: 3, TopK: 2}

	run := func() *Trajectory {
		ev := &LocalEvaluator{Bench: b, Policy: "postdoms", Cache: newCache(t)}
		traj, err := Search(context.Background(), ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		return traj
	}
	t1, t2 := run(), run()

	if t1.BestCycles > t1.BaselineCycles {
		t.Fatalf("search made things worse: best %d > baseline %d", t1.BestCycles, t1.BaselineCycles)
	}
	if len(t1.Steps) == 0 || t1.Steps[0].Round != 0 || t1.Steps[0].Mask != "" || !t1.Steps[0].Accepted {
		t.Fatalf("step 0 is not the baseline incumbent: %+v", t1.Steps)
	}
	if d := Compare(t1, t2); d.Changed() {
		t.Fatalf("same inputs, different trajectories:\n%s", strings.Join(d.Lines, "\n"))
	}
	// Byte-level determinism of the serialized form (cache hits aside: the
	// two runs used separate cold caches, so hit flags agree too).
	var b1, b2 bytes.Buffer
	if err := t1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := t2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("serialized trajectories differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

func TestSearchSeedOnlyMattersWhenExploring(t *testing.T) {
	b := prepBench(t)
	ev := &LocalEvaluator{Bench: b, Policy: "postdoms", Cache: newCache(t)}
	run := func(seed uint64, explore int) *Trajectory {
		traj, err := Search(context.Background(), ev,
			Options{Bench: b.Name, Policy: "postdoms", Seed: seed, Rounds: 2, TopK: 1, Explore: explore})
		if err != nil {
			t.Fatal(err)
		}
		return traj
	}
	a, c := run(11, 0), run(97, 0)
	// Seed is embedded in the trajectory header; mask steps must agree.
	a.Seed, c.Seed = 0, 0
	if d := Compare(a, c); d.Changed() {
		t.Fatalf("Explore=0 search depended on the seed:\n%s", strings.Join(d.Lines, "\n"))
	}
}

func TestEvaluatorCacheIdentity(t *testing.T) {
	b := prepBench(t)
	cache := newCache(t)
	ev := &LocalEvaluator{Bench: b, Policy: "postdoms", Cache: cache}
	ctx := context.Background()

	mask := machine.NewSpawnMask()
	for _, sp := range b.Analysis.Spawns {
		mask.Add(sp.From, uint8(sp.Kind))
		break
	}
	if mask.Len() == 0 {
		t.Fatal("fixture has no spawn sites")
	}

	// Same mask twice: the second evaluation must be a cache hit (no
	// second simulation), and must decode to the identical result.
	o1, err := ev.Evaluate(ctx, mask)
	if err != nil {
		t.Fatal(err)
	}
	if o1.CacheHit {
		t.Fatal("first evaluation reported a cache hit on a cold cache")
	}
	o2, err := ev.Evaluate(ctx, mask)
	if err != nil {
		t.Fatal(err)
	}
	if !o2.CacheHit {
		t.Fatal("second evaluation of the same mask missed the cache")
	}
	if !reflect.DeepEqual(o1.Result, o2.Result) {
		t.Fatalf("cached result differs: %+v vs %+v", o1.Result, o2.Result)
	}

	// Distinct masks must never collide: their sim keys differ, and
	// evaluating a different mask is a miss.
	cfg1 := machine.PolyFlowConfig()
	cfg1.SpawnMask = mask
	cfg2 := machine.PolyFlowConfig()
	cfg2.SpawnMask = mask.With(0xdead0, 0)
	k1, err := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, "postdoms", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, "postdoms", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Hash() == k2.Hash() {
		t.Fatal("distinct masks share a cache identity")
	}
	o3, err := ev.Evaluate(ctx, mask.With(0xdead0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if o3.CacheHit {
		t.Fatal("a never-evaluated mask hit the cache")
	}
}

func TestTrajectoryRoundTripAndSchema(t *testing.T) {
	traj := &Trajectory{
		Schema: Schema, Bench: "gzip", Policy: "postdoms",
		Seed: 3, Rounds: 2, TopK: 2,
		BaselineCycles: 1000, BestMask: "0x40:loop", BestCycles: 900,
		Steps: []Step{
			{Round: 0, Mask: "", Cycles: 1000, Accepted: true},
			{Round: 1, Site: "0x40:loop", Mask: "0x40:loop", Cycles: 900, Accepted: true, CacheHit: true},
		},
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := traj.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrajectoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Compare(traj, back); d.Changed() {
		t.Fatalf("round trip changed the trajectory:\n%s", strings.Join(d.Lines, "\n"))
	}
	if _, err := ReadTrajectory(strings.NewReader(`{"schema":"bogus/9"}`)); err == nil {
		t.Fatal("bad schema accepted")
	}
}

func TestCompareIgnoresCacheHitsAndFlagsRegressions(t *testing.T) {
	a := &Trajectory{
		Schema: Schema, Bench: "gzip", Policy: "postdoms",
		BaselineCycles: 1000, BestMask: "0x40:loop", BestCycles: 900,
		Steps: []Step{{Round: 0, Cycles: 1000, Accepted: true, CacheHit: false}},
	}
	b := *a
	b.Steps = []Step{{Round: 0, Cycles: 1000, Accepted: true, CacheHit: true}}
	if d := Compare(a, &b); d.Changed() {
		t.Fatalf("cache-hit-only difference reported as a change: %v", d.Lines)
	}
	if Compare(a, &b).Regressed() {
		t.Fatal("equal best cycles flagged as regression")
	}

	worse := *a
	worse.BestCycles = 950
	d := Compare(a, &worse)
	if !d.Changed() || !d.Regressed() {
		t.Fatalf("regression not flagged: changed=%v regressed=%v", d.Changed(), d.Regressed())
	}
	better := *a
	better.BestCycles = 850
	if Compare(a, &better).Regressed() {
		t.Fatal("improvement flagged as regression")
	}
}

func TestPickCandidatesExploreDrawsDeterministically(t *testing.T) {
	ranked := []site{
		{pc: 0x10, kind: 0, wasted: 100},
		{pc: 0x20, kind: 0, wasted: 90},
		{pc: 0x30, kind: 1, wasted: 80},
		{pc: 0x40, kind: 2, wasted: 70},
		{pc: 0x50, kind: 3, wasted: 60},
	}
	o := &Options{TopK: 2, Explore: 2, Seed: 42}
	a := pickCandidates(ranked, o, 1)
	b := pickCandidates(ranked, o, 1)
	if len(a) != 4 {
		t.Fatalf("want 2 top + 2 explore candidates, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("exploration draw not deterministic: %v vs %v", a, b)
		}
	}
	// Top-K prefix is the ranking; explore picks come from the remainder.
	if a[0].pc != 0x10 || a[1].pc != 0x20 {
		t.Fatalf("top-K prefix wrong: %v", a)
	}
	seen := map[uint64]bool{}
	for _, c := range a {
		if seen[c.pc] {
			t.Fatalf("candidate drawn twice: %v", a)
		}
		seen[c.pc] = true
	}
}
