// Package machine implements the cycle-level timing model of the paper's
// evaluation: the PolyFlow speculative parallelization machine built on a
// simultaneously multithreaded core, and — as the degenerate single-task
// configuration of the same model — the 8-wide superscalar baseline with
// equivalent resources.
//
// The model is driven by the correct-path dynamic trace from the functional
// emulator. Branch predictors, caches, the shared ROB/scheduler, the divert
// queue, and the store-set memory dependence predictor determine *timing*;
// the path is always correct (mispredicts stall the mispredicting task's
// fetch until the branch resolves — see DESIGN.md for why this
// simplification is conservative). The Task Spawn Unit takes spawn hints
// from a core.Source and uses the trace to place spawned tasks, exactly as
// the paper's spawn unit "uses a trace to ensure that tasks are not spawned
// too far into the future".
package machine

import (
	"fmt"
	"strings"

	"repro/internal/attrib"
	"repro/internal/cachesim"
	"repro/internal/telemetry"
)

// Config holds the pipeline parameters (Figure 8) plus the Task Spawn Unit
// knobs. Its JSON encoding is the configuration's artifact-cache
// fingerprint (internal/artifact): every field is part of it except the
// run observers tagged `json:"-"`, which record a run without changing its
// outcome. A new field is therefore keyed unless it is tagged as an
// observer.
type Config struct {
	Name string

	// Front end.
	Width              int // fetch/dispatch/commit width, instrs/cycle
	FetchTasksPerCycle int // tasks fetched per cycle (PolyFlow: 2)
	FrontEndDepth      int // cycles from fetch to earliest dispatch
	FetchBufPerTask    int // fetched-but-undispatched cap per task
	GshareLog2         int // log2 counters (13 -> 16 Kbit)
	GshareHistBits     int
	BTBLog2            int
	RASDepth           int
	RedirectPenalty    int // extra bubble after branch resolution

	// Backend.
	ROBSize      int
	SchedSize    int
	NumFUs       int
	CommitWidth  int
	DivertQSize  int
	ROBReserve   int // ROB slots only the head task may take
	SchedReserve int // scheduler slots only the head task may take

	// Task Spawn Unit.
	MaxTasks          int
	MaxSpawnDistance  int // max trace distance from spawn point to task start
	MinSpawnDistance  int // profitability filter: skip too-near spawns
	SpawnFromTailOnly bool

	// Memory dependence prediction.
	StoreSetWays int // learned store PCs per load PC

	// SpawnLatency delays a freshly spawned task's first fetch, modeling
	// task-context allocation and rename-map setup.
	SpawnLatency int

	// Profitability feedback (the paper's Task Spawn Unit spawns
	// "depending on dynamic feedback about which tasks are profitable"):
	// a spawn point is disabled once its score falls below -ProfitPatience.
	// Tasks squashed by dependence violations and spawns whose placement
	// foreclosed a useful hop in an older task lower the spawn point's
	// score; tasks that retire cleanly raise it. Spawned tasks cut shorter
	// than ProfitMinTaskLen instructions count as unprofitable fragments.
	ProfitPatience   int
	ProfitMinTaskLen int

	// SpawnMask, when non-nil and non-empty, suppresses individual spawn
	// sites by (trigger PC, kind): the Task Spawn Unit skips masked sites
	// entirely — no spawn, no rejection count, no attribution charge — as
	// if the analysis had never emitted them. A nil or empty mask changes
	// nothing (bit-identical to a maskless run). Unlike the observer
	// attachments below, the mask is semantic: it alters the simulated
	// outcome and therefore participates in the artifact-cache key
	// (internal/artifact hashes its canonical encoding). internal/tune
	// searches over masks; see docs/TUNING.md.
	SpawnMask *SpawnMask

	// HintCacheLog2 models capacity/conflict misses in the spawn hint
	// cache as a direct-mapped tag store of 2^HintCacheLog2 entries,
	// filled on demand from the binary's hint section; a missing entry
	// costs that encounter's spawn opportunity. 0 leaves the hint cache
	// unmodeled (infinite), the paper's configuration.
	HintCacheLog2 int

	// ReclaimROB enables the paper's future-work extension: when the head
	// task is dispatch-blocked because younger tasks fill the reorder
	// buffer, the youngest task is squashed to reclaim its entries.
	ReclaimROB bool

	// WarmupInstrs replays a trace prefix through the caches and branch
	// predictors without timing, modeling the paper's fast-forward through
	// each benchmark's initialization phase. Timing starts at the first
	// instruction after the prefix.
	WarmupInstrs int

	// SampleInterval, when positive, records an IPC sample every that many
	// cycles into Result.IPCSamples — a retirement-throughput timeline for
	// plots and phase analysis.
	SampleInterval int64

	// OnSample, when non-nil and SampleInterval is positive, is called at
	// every sample boundary with the current cycle and retired-instruction
	// counts — a low-rate progress callback for long runs (polyflowd
	// streams these as SSE job-progress events). It runs on the simulation
	// goroutine and must be cheap; it observes the run without affecting
	// its outcome.
	OnSample func(cycle, retired int64) `json:"-"`

	// Caches; nil selects cachesim.DefaultHierarchy. A custom hierarchy
	// cannot be fingerprinted, so it makes the configuration uncacheable.
	Caches *cachesim.Hierarchy `json:"-"`

	// Telemetry, when non-nil, receives this run's metrics (registered by
	// name into its Registry, with machine.Stats kept as a compatibility
	// view over the same storage) and, when its Tracer is non-nil, the
	// cycle-timeline events of docs/OBSERVABILITY.md. One Collector
	// observes one run: sharing it across concurrent runs is a data race.
	// Nil disables telemetry entirely at ~zero cost on the hot loop.
	Telemetry *telemetry.Collector `json:"-"`

	// Attribution, when non-nil, receives per-spawn-site accounting:
	// every task is keyed by its static spawn point (trigger PC +
	// core.Kind) and its retire/squash outcome, cycles and instructions
	// are charged to that site (see internal/attrib and
	// docs/OBSERVABILITY.md). The table is Reset at the start of the run
	// — one Table observes one run at a time, and reusing it across
	// sequential runs keeps the hot loop allocation-free. Nil disables
	// attribution at ~zero cost.
	Attribution *attrib.Table `json:"-"`

	// PolledScheduler selects the original O(scheduler) per-cycle issue
	// rescan instead of the event-driven producer-wakeup scheduler. The two
	// are cycle-for-cycle identical (enforced by the differential tests);
	// the polled path is the permanent reference model the event path is
	// checked against.
	PolledScheduler bool

	// Safety valve. Independently of it, a run in which nothing retires
	// for a Config-derived number of cycles stops with ErrStalled.
	MaxCycles int64
}

// PolyFlowConfig returns the paper's PolyFlow configuration (Figure 8):
// 8-wide, 8 tasks, fetch from 2 tasks/cycle with at most one taken branch
// per task per cycle, 512-entry shared ROB, 64-entry shared scheduler,
// 128-entry divert queue, 8 FUs, 16 Kbit gshare with 8 bits of history, and
// a misprediction penalty of at least 8 cycles.
func PolyFlowConfig() Config {
	return Config{
		Name:               "polyflow",
		Width:              8,
		FetchTasksPerCycle: 2,
		FrontEndDepth:      6,
		FetchBufPerTask:    64,
		GshareLog2:         13,
		GshareHistBits:     8,
		BTBLog2:            9,
		RASDepth:           32,
		RedirectPenalty:    1,
		ROBSize:            512,
		SchedSize:          64,
		NumFUs:             8,
		CommitWidth:        8,
		DivertQSize:        128,
		ROBReserve:         64,
		SchedReserve:       16,
		MaxTasks:           8,
		MaxSpawnDistance:   128,
		MinSpawnDistance:   2,
		SpawnFromTailOnly:  true,
		StoreSetWays:       4,
		SpawnLatency:       1,
		ProfitPatience:     2,
		ProfitMinTaskLen:   6,
		MaxCycles:          1 << 40,
	}
}

// SuperscalarConfig returns the baseline: the same hardware resources with
// a single task, fetching a maximum of one taken branch per cycle.
func SuperscalarConfig() Config {
	c := PolyFlowConfig()
	c.Name = "superscalar"
	c.MaxTasks = 1
	c.FetchTasksPerCycle = 1
	c.ROBReserve = 0
	c.SchedReserve = 0
	return c
}

// Parameters returns the Figure 8 pipeline parameters as (parameter,
// value) rows, in table order.
func (c Config) Parameters() [][2]string {
	return [][2]string{
		{"Pipeline Width", fmt.Sprintf("%d instrs/cycle", c.Width)},
		{"Branch Predictor", fmt.Sprintf("%dKbit gshare, %d bits of global history",
			(1<<c.GshareLog2)*2/1024, c.GshareHistBits)},
		{"Misprediction Penalty", fmt.Sprintf("At least %d cycles", c.FrontEndDepth+2)},
		{"Reorder Buffer", fmt.Sprintf("%d entries, dynamically shared", c.ROBSize)},
		{"Scheduler", fmt.Sprintf("%d entries, dynamically shared", c.SchedSize)},
		{"Functional Units", fmt.Sprintf("%d identical general purpose units", c.NumFUs)},
		{"L1 I-Cache", "8Kbytes, 2-way set assoc., 128 byte lines, 10 cycle miss"},
		{"L1 D-Cache", "16Kbytes, 4-way set assoc., 64 byte lines, 10 cycle miss"},
		{"L2 Cache", "512Kbytes, 8-way set assoc., 128 byte lines, 100 cycle miss"},
		{"Divert Queue", fmt.Sprintf("%d entries, dynamically shared", c.DivertQSize)},
		{"Tasks", fmt.Sprintf("%d", c.MaxTasks)},
	}
}

// ParameterTable renders the Figure 8 pipeline-parameter table.
func (c Config) ParameterTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %s\n", "Parameter", "Value")
	for _, r := range c.Parameters() {
		fmt.Fprintf(&b, "%-24s %s\n", r[0], r[1])
	}
	return b.String()
}
