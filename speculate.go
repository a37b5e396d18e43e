// Package speculate is the public facade of this repository's reproduction
// of "Exploiting Postdominance for Speculative Parallelization" (Agarwal,
// Malik, Woley, Stone, Frank — HPCA 2007).
//
// The typical pipeline is:
//
//	ctx := context.Background()
//	bench, err := speculate.Load("twolf")          // assemble + emulate + analyze
//	base, _ := bench.RunNamedContext(ctx, "superscalar", machine.SuperscalarConfig())
//	res, _ := bench.RunNamedContext(ctx, "postdoms", machine.PolyFlowConfig())
//	fmt.Printf("speedup %.1f%%\n", speculate.SpeedupPct(base, res))
//
// Programs are written in the repository's MIPS-like assembly (internal/asm),
// executed functionally to obtain the retired dynamic trace (internal/emu),
// analyzed for control-equivalent spawn points from branch immediate
// postdominators (internal/core), and finally simulated on the cycle-level
// PolyFlow/superscalar timing model (internal/machine). The dynamic
// reconvergence predictor of Section 4.4 lives in internal/reconv.
package speculate

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/reconv"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Bench is a prepared benchmark: program, dynamic trace, dependence
// information, and the static spawn-point analysis.
type Bench struct {
	Name     string
	Prog     *isa.Program
	Trace    *trace.Trace
	Deps     *trace.Deps
	Analysis *core.Analysis

	// SourceSHA is the hex SHA-256 of the assembly source, and MaxInstrs
	// the emulation bound, for benches prepared from a registered workload
	// — together they are the bench's identity in the artifact cache
	// (internal/artifact). SourceSHA is empty for ad-hoc Prepare'd
	// programs, which are therefore uncacheable.
	SourceSHA string
	MaxInstrs int
}

// Assemble assembles source text into a program image.
func Assemble(src string) (*isa.Program, error) { return asm.Assemble(src) }

// Prepare assembles (if needed) and emulates the program, then runs the
// profile-assisted postdominator analysis (indirect-jump targets observed
// in the trace augment the static jump tables, as in the paper's
// profile-driven analysis).
func Prepare(name string, prog *isa.Program, maxInstrs int) (*Bench, error) {
	return prepare(name, prog, maxInstrs, nil, nil, nil)
}

// prepare emulates, architecturally re-checks, and analyzes one program.
// os drives the emulation and checkOS the re-check; they must be distinct
// fresh instances (syscall handlers are stateful).
func prepare(name string, prog *isa.Program, maxInstrs int, os, checkOS emu.SyscallHandler, segs []emu.Segment) (*Bench, error) {
	emuRuns.Add(1)
	tr, err := emu.Run(prog, emu.Config{MaxInstrs: maxInstrs, OS: os, Segments: segs})
	if err != nil {
		return nil, fmt.Errorf("speculate: emulating %s: %w", name, err)
	}
	// The paper's simulator compares every retired instruction against an
	// architectural simulator; since the timing models are trace-driven,
	// verifying the trace here gives the same guarantee up front.
	if err := emu.CheckOS(prog, tr, checkOS); err != nil {
		return nil, fmt.Errorf("speculate: architectural check of %s failed: %w", name, err)
	}
	an, err := analyze(prog, tr.IndirectTargets())
	if err != nil {
		return nil, fmt.Errorf("speculate: analyzing %s: %w", name, err)
	}
	return &Bench{
		Name:      name,
		Prog:      prog,
		Trace:     tr,
		Deps:      tr.ComputeDeps(),
		Analysis:  an,
		MaxInstrs: maxInstrs,
	}, nil
}

// WorkloadNames lists the synthetic benchmarks in the paper's figure
// order (the default grid set).
func WorkloadNames() []string { return workloads.Names() }

// AllWorkloadNames lists every registered workload across families:
// the synthetic twelve, then the kernels family.
func AllWorkloadNames() []string { return workloads.AllNames() }

// FamilyWorkloadNames lists one family's workload names in canonical
// order (nil for an unknown family); see workloads.Families.
func FamilyWorkloadNames(family string) []string {
	var out []string
	for _, w := range workloads.ByFamily(family) {
		out = append(out, w.Name)
	}
	return out
}

// WorkloadFamilies lists the registered family names.
func WorkloadFamilies() []string { return workloads.Families() }

// defaultWarmup models the paper's fast-forward through initialization:
// the first chunk of the trace only warms caches and predictors.
func (b *Bench) defaultWarmup() int {
	w := b.Trace.Len() / 5
	if w > 50000 {
		w = 50000
	}
	return w
}

func (b *Bench) fillWarmup(cfg *machine.Config) {
	if cfg.WarmupInstrs == 0 {
		cfg.WarmupInstrs = b.defaultWarmup()
	}
}

// PolicyNames lists every runnable configuration name accepted by
// RunNamedContext:
// "superscalar", "rec_pred", and all static spawn policies.
func PolicyNames() []string {
	names := []string{"superscalar", "rec_pred"}
	for _, p := range allPolicies() {
		names = append(names, p.Name)
	}
	return names
}

// PolicyByName finds a static spawn policy by name.
func PolicyByName(name string) (core.Policy, bool) {
	for _, p := range allPolicies() {
		if p.Name == name {
			return p, true
		}
	}
	return core.Policy{}, false
}

func allPolicies() []core.Policy {
	ps := core.IndividualPolicies()
	ps = append(ps, core.CombinationPolicies()...)
	ps = append(ps, core.ExclusionPolicies()...)
	return ps
}

// RunNamedContext simulates the bench under the named configuration:
// "superscalar" runs the 8-wide baseline, "rec_pred" PolyFlow with the
// dynamic reconvergence predictor of Section 4.4 as the spawn source (cold
// at start, trained on the retirement stream), and any static policy name
// PolyFlow with that policy's spawn source. The PolyFlow forms take cfg as
// the machine configuration. Cancellation and timeouts of ctx propagate
// into the cycle loop (polyflow -timeout and polyflowd job deadlines ride
// on this).
func (b *Bench) RunNamedContext(ctx context.Context, name string, cfg machine.Config) (machine.Result, error) {
	var src core.Source
	switch name {
	case "superscalar":
		// The baseline has no Task Spawn Unit, so cfg.SpawnMask is
		// deliberately not carried over: a masked and an unmasked
		// superscalar run are the same run and must share one artifact.
		ss := machine.SuperscalarConfig()
		ss.Telemetry = cfg.Telemetry
		ss.Attribution = cfg.Attribution
		ss.PolledScheduler = cfg.PolledScheduler
		ss.WarmupInstrs = cfg.WarmupInstrs
		ss.SampleInterval = cfg.SampleInterval
		ss.OnSample = cfg.OnSample
		cfg = ss
	case "rec_pred":
		cfg.Name += "/rec_pred"
		src = reconv.NewSource(reconv.New(reconv.DefaultConfig()), b.Prog)
	default:
		p, ok := PolicyByName(name)
		if !ok {
			return machine.Result{}, fmt.Errorf("speculate: unknown policy %q (have %v)", name, PolicyNames())
		}
		cfg.Name += "/" + p.Name
		src = p.Source(b.Analysis)
	}
	b.fillWarmup(&cfg)
	return machine.RunContext(ctx, b.Trace, b.Deps, src, cfg)
}

// RunCell runs one grid cell — bench b under the named policy — and
// returns its encoded SimArtifact. It is the one path by which polyflowd,
// the figure harness, cmd/polyflow and the local tuner simulate a cell,
// so a cell has one cache identity and one artifact whichever of them
// asks:
//
//   - the base config is the canonical one: SuperscalarConfig for
//     "superscalar", PolyFlowConfig otherwise;
//   - mask applies to PolyFlow cells only (the baseline has no spawns);
//   - sampleInterval is a semantic input (the samples land in the
//     artifact); onSample observes them and is not part of the key;
//   - attribution is always attached and verified, so every artifact
//     carries its report.
//
// col, when non-nil, observes the run's telemetry. A cache hit would
// replay no events, so a cell with a collector is always simulated live:
// the cache is neither read nor written, and hit is false. Its artifact is
// byte-identical to the collector-less cell's (telemetry is an observer,
// not part of the key).
//
// With a cache and a cacheable bench (a registered workload) the artifact
// is memoized by content address; otherwise the cell is simulated and
// hit is false. Concurrent calls for one cold key run one simulation, and
// every one of them reports hit=false: the leader's outcome is shared,
// and the pipeline did run for all of them. The cache_lookup, simulate
// and artifact_encode spans go to the trace in ctx, if any; a caller
// deduplicated onto another's simulation records only its cache_lookup.
func RunCell(ctx context.Context, b *Bench, cache *artifact.Cache, policy string, mask *machine.SpawnMask,
	sampleInterval int64, onSample func(cycle, retired int64), col *telemetry.Collector) (data []byte, hit bool, err error) {

	baseCfg := machine.PolyFlowConfig()
	if policy == "superscalar" {
		baseCfg = machine.SuperscalarConfig()
	} else {
		baseCfg.SpawnMask = mask
	}
	baseCfg.SampleInterval = sampleInterval
	key, keyErr := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, policy, baseCfg)
	if keyErr != nil && !errors.Is(keyErr, artifact.ErrUncacheable) {
		return nil, false, keyErr
	}
	compute := func(ctx context.Context) ([]byte, error) {
		cfg := baseCfg
		cfg.OnSample = onSample
		cfg.Telemetry = col
		tbl := attrib.NewTable()
		cfg.Attribution = tbl
		endSim := obs.StartSpan(ctx, "simulate")
		res, err := b.RunNamedContext(ctx, policy, cfg)
		if err != nil {
			endSim.End("error", "true")
			return nil, err
		}
		endSim.End("cycles", strconv.FormatInt(res.Cycles, 10))
		if err := machine.VerifyAttribution(tbl, res); err != nil {
			return nil, err
		}
		rep := attrib.NewReport(tbl, b.Name, policy, res.Config, res.Cycles, res.Retired)
		endEnc := obs.StartSpan(ctx, "artifact_encode")
		data, err := artifact.EncodeSim(&artifact.SimArtifact{Key: key, Result: res, Attrib: rep})
		endEnc.End()
		return data, err
	}
	if cache == nil || keyErr != nil || col != nil {
		data, err = compute(ctx)
		return data, false, err
	}
	endLookup := obs.StartSpan(ctx, "cache_lookup")
	data, hit, err = cache.GetOrCompute(ctx, key.Hash(), compute)
	endLookup.End("hit", strconv.FormatBool(hit))
	return data, hit, err
}

// SpeedupPct returns the percent speedup of res over base, using cycle
// counts (both runs retire the same instruction stream).
func SpeedupPct(base, res machine.Result) float64 {
	if res.Cycles == 0 {
		return 0
	}
	return (float64(base.Cycles)/float64(res.Cycles) - 1) * 100
}

// LossPct returns the Figure 11 metric: the loss in percent speedup of
// excl versus full, normalized to the superscalar IPC:
// (IPC_full - IPC_excl) / IPC_superscalar * 100.
func LossPct(base, full, excl machine.Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return (full.IPC - excl.IPC) / base.IPC * 100
}
