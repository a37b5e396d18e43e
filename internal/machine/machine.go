package machine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/attrib"
	"repro/internal/branchpred"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Per-instruction pipeline states.
const (
	stNone uint8 = iota
	stFetched
	stDiverted
	stInSched
	stIssued
	stRetired
)

const never = int32(-1)

// task is one active PolyFlow task: a contiguous segment of the dynamic
// trace with its own fetch stream.
type task struct {
	id       int
	start    int // first trace index of the segment
	end      int // exclusive; -1 while the task is the unbounded tail
	fetchIdx int
	dispIdx  int
	inflight int // fetched and not yet retired

	stallUntil      int64
	pendingRedirect int // trace index of an unresolved mispredicted branch, -1 if none
	hist            uint32
	ras             *branchpred.RAS
	lastLine        uint64 // last-fetched I-cache line + 1 (0 = none)
	spawnFrom       uint64 // trigger PC of the spawn that created this task (0 = initial task)
	spawnKind       uint8  // core.Kind of the creating spawn; attrib.Root for the initial task
	blockedSpawn    bool   // a viable spawn was foreclosed by the tail-only rule
	spawnCycle      int64  // cycle the task was created (telemetry/attribution)
}

func (t *task) fetchDone(traceLen int) bool {
	if t.end != -1 {
		return t.fetchIdx >= t.end
	}
	return t.fetchIdx >= traceLen
}

// dqEntry is one diverted instruction waiting for earlier-task producers to
// dispatch.
type dqEntry struct {
	idx   int
	prods [3]int32
	n     uint8
}

type violation struct {
	load, store int
	detect      int64
}

// Stats collects the observable behaviour of one run.
type Stats struct {
	Mispredicts      int64
	SpawnsTaken      int64
	SpawnsByKind     [core.NumKinds]int64
	SpawnsRejected   int64
	Violations       int64
	SquashedInstrs   int64
	Diverted         int64
	TaskCycles       int64 // sum over cycles of active task count
	PeakTasks        int
	ICacheMisses     uint64
	DCacheMisses     uint64
	L2Misses         uint64
	ICacheStallCycle int64
	Foreclosures     int64
	HintMisses       int64
	Reclaims         int64
}

// Result is the outcome of one timing simulation.
type Result struct {
	Config  string
	Cycles  int64
	Retired int64
	IPC     float64
	// IPCSamples holds one retirement-rate sample per SampleInterval
	// cycles when sampling is enabled.
	IPCSamples []float64
	Stats
}

// String summarizes the observable counters, including the squash
// forensics (violations, foreclosures) that the shorter historical form
// omitted.
func (s Stats) String() string {
	return fmt.Sprintf("mispredicts %d, spawns %d, rejected %d, violations %d, squashed instrs %d, foreclosures %d, reclaims %d, diverted %d",
		s.Mispredicts, s.SpawnsTaken, s.SpawnsRejected, s.Violations,
		s.SquashedInstrs, s.Foreclosures, s.Reclaims, s.Diverted)
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d instrs, %d cycles, IPC %.3f (%s)",
		r.Config, r.Retired, r.Cycles, r.IPC, r.Stats)
}

type sim struct {
	cfg    Config
	tr     []trace.Entry
	t      *trace.Trace
	deps   *trace.Deps
	regs   trace.RegWriters // register last writers after the indices below hi (extend, warmup)
	src    core.Source
	gshare *branchpred.Gshare
	btb    *branchpred.BTB
	caches *cachesim.Hierarchy
	ss     *storeSets
	ar     *arena
	polled bool // Config.PolledScheduler: use the reference issue rescan

	// trainer is src when it learns from the retirement stream, nil for a
	// *core.StaticSource, whose OnRetire does nothing.
	trainer core.Source

	// ring holds the per-instruction pipeline records of the in-flight
	// trace indices below hi, one slot per index at i & ringMask
	// (arena.go).
	ring     []slot
	ringMask int
	hi       int

	// Event-driven scheduler queues (sched.go): the timing wheel of
	// wakeup buckets, indexed cycle & wheelMask and stored in the arena,
	// and the trace-index-ordered ready queue.
	wheel     [][]int32
	wheelMask int
	readyQ    []int32

	watchTmp []int32 // fireWatch scratch (sched.go)

	tasks      []*task
	freeTasks  []*task
	chosen     []*task // fetch-stage scratch
	nextTaskID int
	warmStart  int
	robUsed    int
	schedUsed  int
	sched      []int32 // polled mode only: trace indices in the scheduler, ascending
	dq         []dqEntry
	retireIdx  int
	cycle      int64
	lastRetire int64 // cycle of the latest retirement (or the run's start)
	stallLimit int64 // cycles without a retirement the watchdog tolerates
	viols      []violation
	profit     *profitTable // spawn-point profitability scores
	hintTags   []uint64     // finite hint cache tags (nil = unmodeled)
	mask       *SpawnMask   // suppressed spawn sites (nil = none)
	stats      Stats

	samples       []float64
	lastSampleRet int

	// tel is nil unless cfg.Telemetry was provided; every telemetry touch
	// on the simulation loop hides behind that one nil check, so a run
	// without a Collector pays nothing beyond its ordinary stats fields.
	tel *telemetrySinks

	// att is nil unless cfg.Attribution was provided; like tel, one nil
	// check guards every attribution touch on the hot loop.
	att *attrib.Table
}

// telemetrySinks holds the tracer and the histogram handles the sim
// observes into. Scalar stats need no handles: bindTelemetry registers the
// sim's own Stats fields as the registry's counter storage, keeping the hot
// loop's plain field increments.
type telemetrySinks struct {
	tracer        *telemetry.Tracer
	taskLifetime  *telemetry.Histogram // spawn-to-end cycles, retired or squashed
	spawnToCommit *telemetry.Histogram // spawn-to-full-retire cycles, retired tasks only
	squashDepth   *telemetry.Histogram // instructions rolled back per violation squash
	taskLen       *telemetry.Histogram // segment length (instrs) of completed tasks
	dqOccupancy   *telemetry.Histogram // divert-queue occupancy sampled at each divert
}

// bindTelemetry publishes the run's metrics into the collector's registry
// and readies the event tracer. Counter names are the machine.* catalog of
// docs/OBSERVABILITY.md; their storage is the sim's Stats fields, so
// machine.Stats remains a coherent compatibility view of the registry.
func (s *sim) bindTelemetry(col *telemetry.Collector) {
	reg := col.Registry
	reg.RegisterCounter("machine.mispredicts", &s.stats.Mispredicts)
	reg.RegisterCounter("machine.spawns_taken", &s.stats.SpawnsTaken)
	reg.RegisterCounter("machine.spawns_rejected", &s.stats.SpawnsRejected)
	reg.RegisterCounter("machine.violations", &s.stats.Violations)
	reg.RegisterCounter("machine.squashed_instrs", &s.stats.SquashedInstrs)
	reg.RegisterCounter("machine.diverted", &s.stats.Diverted)
	reg.RegisterCounter("machine.task_cycles", &s.stats.TaskCycles)
	reg.RegisterCounter("machine.icache_stall_cycles", &s.stats.ICacheStallCycle)
	reg.RegisterCounter("machine.foreclosures", &s.stats.Foreclosures)
	reg.RegisterCounter("machine.hint_misses", &s.stats.HintMisses)
	reg.RegisterCounter("machine.reclaims", &s.stats.Reclaims)
	for k := core.Kind(0); k < core.NumKinds; k++ {
		reg.RegisterCounter("machine.spawns."+k.String(), &s.stats.SpawnsByKind[k])
	}
	s.tel = &telemetrySinks{
		tracer:        col.Tracer,
		taskLifetime:  reg.Histogram("machine.task_lifetime_cycles", telemetry.ExpBounds(8, 12)),
		spawnToCommit: reg.Histogram("machine.spawn_to_commit_cycles", telemetry.ExpBounds(8, 12)),
		squashDepth:   reg.Histogram("machine.squash_depth_instrs", telemetry.ExpBounds(4, 10)),
		taskLen:       reg.Histogram("machine.task_len_instrs", telemetry.ExpBounds(4, 10)),
		dqOccupancy:   reg.Histogram("machine.divert_queue_occupancy", telemetry.ExpBounds(2, 8)),
	}
}

// emit records a timeline event when tracing is on. Callers on warm paths
// should guard with `s.tel != nil` themselves to skip argument setup.
func (s *sim) emit(kind telemetry.EventKind, taskID int, a, b int64) {
	if s.tel == nil || s.tel.tracer == nil {
		return
	}
	s.tel.tracer.Emit(s.cycle, kind, int32(taskID), a, b)
}

// taskEnded observes end-of-life histograms for a task that is leaving the
// machine at the current cycle.
func (s *sim) taskEnded(t *task, retired bool) {
	life := s.cycle - t.spawnCycle
	s.tel.taskLifetime.Observe(life)
	end := t.end
	if end == -1 {
		end = t.fetchIdx
	}
	s.tel.taskLen.Observe(int64(end - t.start))
	if retired {
		s.tel.spawnToCommit.Observe(life)
	}
}

// scoreSpawn applies profitability feedback to a spawn point.
func (s *sim) scoreSpawn(from uint64, delta int) {
	if from == 0 {
		return
	}
	v := s.profit.get(from) + delta
	if v > 4 {
		v = 4
	}
	if v < -4 {
		v = -4
	}
	s.profit.set(from, v)
}

// spawnAllowed consults the profitability table.
func (s *sim) spawnAllowed(from uint64) bool {
	return s.profit.get(from) >= -s.cfg.ProfitPatience
}

// Run simulates the trace on the configured machine with the given spawn
// source (nil means no spawning — the superscalar). deps may be nil, in
// which case it is computed here.
func Run(tr *trace.Trace, deps *trace.Deps, src core.Source, cfg Config) (Result, error) {
	return RunContext(context.Background(), tr, deps, src, cfg)
}

// RunContext is Run under a context: the simulation aborts promptly (within
// ~1k cycles) when ctx is canceled or times out, returning the partial
// result and a wrapped ctx error. The cancellation check touches the hot
// loop only on cycle numbers divisible by 1024, so the cost is one
// predictable branch per cycle; a Background context costs the same and
// never fires.
func RunContext(ctx context.Context, tr *trace.Trace, deps *trace.Deps, src core.Source, cfg Config) (Result, error) {
	s := newSim(tr, deps, src, cfg)
	defer s.release()
	return s.run(ctx)
}

// newSim readies a run: predictors, a pooled arena with a ringSize(cfg)
// slot ring, the initial task and the warmed-up front end.
func newSim(tr *trace.Trace, deps *trace.Deps, src core.Source, cfg Config) *sim {
	if deps == nil {
		deps = tr.ComputeDeps()
	}
	s := &sim{
		cfg:    cfg,
		tr:     tr.Entries,
		t:      tr,
		deps:   deps,
		regs:   trace.NewRegWriters(),
		src:    src,
		polled: cfg.PolledScheduler,
		gshare: branchpred.NewGshare(cfg.GshareLog2, cfg.GshareHistBits),
		btb:    branchpred.NewBTB(cfg.BTBLog2),
		caches: cfg.Caches,
		ss:     newStoreSets(cfg.StoreSetWays),
	}
	ar := getArena(ringSize(cfg))
	s.bind(ar)
	if s.caches == nil {
		s.caches = ar.defaultCaches()
	}
	s.wheel = ar.wheelOf(wheelSize(s.caches))
	s.wheelMask = len(s.wheel) - 1
	s.stallLimit = stallLimit(cfg, s.caches)
	if _, static := src.(*core.StaticSource); !static {
		s.trainer = src
	}
	if cfg.HintCacheLog2 > 0 {
		s.hintTags = make([]uint64, 1<<cfg.HintCacheLog2)
	}
	if cfg.SpawnMask.Len() > 0 {
		// An empty mask stays nil here so the hot path's nil check keeps a
		// maskless run bit-identical to one with an empty mask attached.
		s.mask = cfg.SpawnMask
	}
	if cfg.Attribution != nil {
		s.att = cfg.Attribution
		s.att.Reset() // one table observes one run; reuse keeps its arrays
	}
	t0 := s.newTask(cfg.RASDepth)
	t0.end = -1
	t0.pendingRedirect = -1
	t0.spawnKind = attrib.Root
	s.tasks = append(s.tasks, t0)
	s.nextTaskID = 1
	if s.att != nil {
		s.att.Site(0, attrib.Root).Spawns++
	}
	if w := cfg.WarmupInstrs; w > 0 {
		s.warmup(min(w, tr.Len()))
	}
	if cfg.Telemetry != nil {
		s.bindTelemetry(cfg.Telemetry)
		s.emit(telemetry.EvTaskSpawn, 0, int64(s.tasks[0].start), -1)
	}
	return s
}

// run drives the cycle loop until the whole trace has retired, ctx is
// done, or MaxCycles is reached.
func (s *sim) run(ctx context.Context) (Result, error) {
	n, cfg := len(s.tr), &s.cfg
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done() // capture once; Done() may allocate lazily
	}
	for s.retireIdx < n {
		if s.cycle >= cfg.MaxCycles {
			return s.result(), fmt.Errorf("machine: exceeded MaxCycles=%d at retireIdx=%d/%d",
				cfg.MaxCycles, s.retireIdx, n)
		}
		if s.cycle-s.lastRetire > s.stallLimit {
			return s.result(), s.stalled()
		}
		if done != nil && s.cycle&1023 == 0 {
			select {
			case <-done:
				return s.result(), fmt.Errorf("machine: run canceled at cycle %d, retireIdx=%d/%d: %w",
					s.cycle, s.retireIdx, n, ctx.Err())
			default:
			}
		}
		s.step()
	}
	return s.result(), nil
}

// step simulates one cycle.
func (s *sim) step() {
	cfg := &s.cfg
	s.processViolations()
	s.retire()
	if s.polled {
		s.issuePolled()
	} else {
		s.issueEvent()
	}
	s.moveDivertQueue()
	s.dispatch()
	s.fetch()
	s.stats.TaskCycles += int64(len(s.tasks))
	if len(s.tasks) > s.stats.PeakTasks {
		s.stats.PeakTasks = len(s.tasks)
	}
	if iv := cfg.SampleInterval; iv > 0 && s.cycle > 0 && s.cycle%iv == 0 {
		s.samples = append(s.samples, float64(s.retireIdx-s.lastSampleRet)/float64(iv))
		s.lastSampleRet = s.retireIdx
		if cfg.OnSample != nil {
			cfg.OnSample(s.cycle, int64(s.retireIdx))
		}
	}
	// Slow profitability recovery: disabled spawn points get periodic
	// retries rather than being written off forever.
	if s.cycle&8191 == 0 {
		s.profit.decay()
	}
	s.cycle++
}

// ErrStalled is wrapped by the error run returns when the progress
// watchdog fires: no instruction retired for longer than stallLimit allows,
// which only a bug in the timing model can cause.
var ErrStalled = errors.New("machine: progress watchdog")

// stallLimit is the progress watchdog's bound: the most cycles run lets
// pass without a retirement. Once an instruction is the oldest unretired
// one, everything older is done, so it retires after at most a redirect
// (RedirectPenalty), a spawn delay (SpawnLatency), one I-cache fill, the
// front end (FrontEndDepth) and its own execution, and the worst memory
// latency bounds both the fill and the execution. A violation squash can
// make it refetch once more; the sum is multiplied by a generous 16 and
// 1024 cycles are added on top.
func stallLimit(cfg Config, h *cachesim.Hierarchy) int64 {
	mem := max(2+h.L1D.WorstLatency(), h.L1I.WorstLatency(), syscallLatency)
	return 16*int64(mem+cfg.RedirectPenalty+cfg.FrontEndDepth+cfg.SpawnLatency) + 1024
}

var stateNames = [...]string{"none", "fetched", "diverted", "in-scheduler", "issued", "retired"}

// stalled builds the watchdog's error: where the machine wedged, and the
// state of every structure that could be holding the oldest instruction
// back.
func (s *sim) stalled() error {
	var b strings.Builder
	fmt.Fprintf(&b, "no retirement for %d cycles (limit %d) at cycle %d, retireIdx=%d/%d",
		s.cycle-s.lastRetire, s.stallLimit, s.cycle, s.retireIdx, len(s.tr))
	for _, t := range s.tasks {
		fmt.Fprintf(&b, "; task %d start=%d fetch=%d dispatch=%d end=%d", t.id, t.start, t.fetchIdx, t.dispIdx, t.end)
	}
	if i := s.retireIdx; i < s.hi {
		sl := s.at(i)
		fmt.Fprintf(&b, "; ROB head %d: %s fetch=%d dispatch=%d issue=%d done=%d pending=%d readyAt=%d",
			i, stateNames[sl.state], sl.fetchC, sl.dispC, sl.issueC, sl.doneC, sl.pendCnt, sl.readyAt)
	} else {
		fmt.Fprintf(&b, "; ROB head %d: not fetched", i)
	}
	head := func(name string, q []int32) {
		if len(q) == 0 {
			fmt.Fprintf(&b, "; %s empty", name)
		} else {
			fmt.Fprintf(&b, "; %s head %d (of %d)", name, q[0], len(q))
		}
	}
	if s.polled {
		head("scheduler", s.sched)
	} else {
		head("wheel bucket", s.wheel[int(s.cycle)&s.wheelMask])
		head("readyQ", s.readyQ)
	}
	if len(s.dq) == 0 {
		b.WriteString("; divert queue empty")
	} else {
		fmt.Fprintf(&b, "; divert queue head %d (of %d)", s.dq[0].idx, len(s.dq))
	}
	return fmt.Errorf("%w: %s", ErrStalled, b.String())
}

// newTask returns a zeroed task, recycling a previously freed one (and its
// return-address stack) when possible.
func (s *sim) newTask(rasDepth int) *task {
	if n := len(s.freeTasks); n > 0 {
		t := s.freeTasks[n-1]
		s.freeTasks = s.freeTasks[:n-1]
		ras := t.ras
		*t = task{}
		if ras != nil && ras.Depth() == rasDepth {
			ras.Reset()
			t.ras = ras
		} else {
			t.ras = branchpred.NewRAS(rasDepth)
		}
		return t
	}
	return &task{ras: branchpred.NewRAS(rasDepth)}
}

// freeTask recycles a task that left the machine.
func (s *sim) freeTask(t *task) {
	s.freeTasks = append(s.freeTasks, t)
}

func (s *sim) result() Result {
	// Flush tasks still live at the end of the run: their cycles were
	// accumulated into TaskCycles and their retired prefix into the
	// retire count, so the attribution totals reconcile exactly.
	if s.att != nil {
		for _, t := range s.tasks {
			st := s.att.Site(t.spawnFrom, t.spawnKind)
			st.AliveAtEnd++
			st.CreditedCycles += s.cycle - t.spawnCycle
			if r := s.retireIdx - t.start; r > 0 {
				st.InstrsRetired += int64(r)
			}
		}
	}
	s.stats.ICacheMisses = s.caches.L1I.Misses
	s.stats.DCacheMisses = s.caches.L1D.Misses
	s.stats.L2Misses = s.caches.L2.Misses
	r := Result{
		Config:     s.cfg.Name,
		Cycles:     s.cycle,
		Retired:    int64(s.retireIdx - s.warmStart),
		IPCSamples: s.samples,
		Stats:      s.stats,
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Retired) / float64(r.Cycles)
	}
	if col := s.cfg.Telemetry; col != nil {
		reg := col.Registry
		reg.Gauge("machine.cycles").Set(r.Cycles)
		reg.Gauge("machine.retired").Set(r.Retired)
		reg.Gauge("machine.ipc_milli").Set(int64(r.IPC * 1000))
		reg.Gauge("machine.peak_tasks").Set(int64(s.stats.PeakTasks))
		reg.Gauge("machine.icache_misses").Set(int64(s.stats.ICacheMisses))
		reg.Gauge("machine.dcache_misses").Set(int64(s.stats.DCacheMisses))
		reg.Gauge("machine.l2_misses").Set(int64(s.stats.L2Misses))
	}
	return r
}

// warmup replays the first w trace entries through the caches and branch
// predictors without timing — the model of the paper's fast-forward through
// each benchmark's initialization phase. The spawn source (e.g. the
// dynamic reconvergence predictor) is deliberately NOT trained here: the
// paper models its warm-up as a real cost. The register last-writer table
// advances over the warm prefix, so the first slots extend initializes get
// the warm prefix's writers as producers.
func (s *sim) warmup(w int) {
	var hist uint32
	var lastLine uint64
	t := s.tasks[0]
	for i := 0; i < w; i++ {
		e := &s.tr[i]
		s.regs.Next(i, e)
		line := s.caches.L1I.LineOf(e.PC) + 1
		if line != lastLine {
			s.caches.L1I.Access(e.PC)
			lastLine = line
		}
		switch {
		case e.IsCondBranch():
			s.gshare.Update(e.PC, hist, e.Taken())
			hist = s.gshare.PushHistory(hist, e.Taken())
		case e.IsCall():
			t.ras.Push(e.PC + isa.InstSize)
			if e.IsIndirect() {
				s.btb.Update(e.PC, s.t.NextPC(i))
			}
		case e.IsReturn():
			t.ras.Pop()
		case e.IsIndirect():
			s.btb.Update(e.PC, s.t.NextPC(i))
		}
		if e.IsLoad() || e.IsStore() {
			s.caches.L1D.Access(e.Addr)
		}
	}
	t.start, t.fetchIdx, t.dispIdx = w, w, w
	t.hist = hist
	s.retireIdx = w
	// Warmed-up instructions count as long retired (doneOf, dispOf), so
	// dependence checks against them succeed immediately.
	s.hi = w
	s.warmStart = w
	s.lastSampleRet = w
	// Report post-warmup cache statistics only.
	s.caches.L1I.Accesses, s.caches.L1I.Misses = 0, 0
	s.caches.L1D.Accesses, s.caches.L1D.Misses = 0, 0
	s.caches.L2.Accesses, s.caches.L2.Misses = 0, 0
}

// taskIdxOf returns the position of the active task containing trace index
// i, or -1. Tasks are ordered by segment start, so a binary search over the
// starts finds the only candidate (used on the violation path).
func (s *sim) taskIdxOf(i int) int {
	ts := s.tasks
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid].start <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first task starting beyond i; its predecessor is the only
	// task whose segment can contain i.
	if lo == 0 {
		return -1
	}
	if t := ts[lo-1]; t.end == -1 || i < t.end {
		return lo - 1
	}
	return -1
}

// taskOf returns the active task containing trace index i, or nil.
func (s *sim) taskOf(i int) *task {
	if j := s.taskIdxOf(i); j >= 0 {
		return s.tasks[j]
	}
	return nil
}

// ---------------------------------------------------------------- retire

func (s *sim) retire() {
	n := len(s.tr)
	for c := 0; c < s.cfg.CommitWidth && s.retireIdx < n; c++ {
		i := s.retireIdx
		if i >= s.hi {
			return // not fetched yet
		}
		sl := s.at(i)
		if sl.state != stIssued || sl.doneC == never || int64(sl.doneC) > s.cycle {
			return
		}
		sl.state = stRetired
		s.robUsed--
		head := s.tasks[0]
		head.inflight--
		if s.trainer != nil {
			s.trainer.OnRetire(&s.tr[i])
		}
		s.retireIdx++
		s.lastRetire = s.cycle
		if head.end != -1 && s.retireIdx >= head.end {
			// The task retired without being squashed: its spawn point
			// earned its keep.
			s.scoreSpawn(head.spawnFrom, 1)
			if s.att != nil {
				st := s.att.Site(head.spawnFrom, head.spawnKind)
				st.Retired++
				st.InstrsRetired += int64(head.end - head.start)
				st.CreditedCycles += s.cycle - head.spawnCycle
			}
			if s.tel != nil {
				s.taskEnded(head, true)
				s.emit(telemetry.EvTaskRetire, head.id, int64(head.start), int64(head.end))
			}
			// Shift rather than reslice, so the slice keeps its capacity
			// and spawning never reallocates it.
			copy(s.tasks, s.tasks[1:])
			s.tasks = s.tasks[:len(s.tasks)-1]
			s.freeTask(head)
		}
	}
}

// ---------------------------------------------------------------- issue

// syscallLatency is a kernel crossing: the OS work itself happened at
// emulation time; the timing model charges a fixed long-latency service
// cost.
const syscallLatency = 24

func (s *sim) latency(e *trace.Entry) int32 {
	switch {
	case e.IsLoad():
		return int32(2 + s.caches.L1D.Access(e.Addr))
	case e.IsStore():
		s.caches.L1D.Access(e.Addr)
		return 1
	case e.Op == isa.OpMUL:
		return 3
	case e.Op == isa.OpDIV || e.Op == isa.OpREM:
		return 12
	case e.Op == isa.OpSYSCALL:
		return syscallLatency
	}
	return 1
}

// issueOne moves instruction i from the scheduler to execution: its
// completion cycle becomes known, speculative loads past an unfinished
// store register on its watch list, and (event mode) waiters on i wake.
func (s *sim) issueOne(i int) {
	s.schedUsed--
	sl := s.at(i)
	sl.state = stIssued
	sl.issueC = int32(s.cycle)
	e := &s.tr[i]
	done := int32(s.cycle) + s.latency(e)
	sl.doneC = done

	if e.IsStore() {
		// Any speculative loads that already issued before this store's
		// data became available read stale data.
		s.fireWatch(i, done)
	}
	if e.IsLoad() {
		if p := int(sl.memSpec); p >= 0 {
			switch d := s.doneOf(p); {
			case d == never:
				s.watchAdd(p, i)
			case d > sl.issueC:
				s.viols = append(s.viols, violation{load: i, store: p, detect: int64(d)})
			}
		}
	}
	// In polled mode no wake edges exist, so this is a no-op there.
	s.fireWake(i, done)
}

// ---------------------------------------------------------------- divert

func (s *sim) moveDivertQueue() {
	if len(s.dq) == 0 {
		return
	}
	moved := 0
	kept := s.dq[:0]
	head := s.tasks[0]
	for _, en := range s.dq {
		if s.at(en.idx).state != stDiverted { // squashed
			continue
		}
		if moved >= s.cfg.Width {
			kept = append(kept, en)
			continue
		}
		readyToMove := true
		for k := 0; k < int(en.n); k++ {
			p := en.prods[k]
			if p >= 0 && int64(s.dispOf(int(p))) >= s.cycle { // "some time after" dispatch
				readyToMove = false
				break
			}
		}
		if !readyToMove {
			kept = append(kept, en)
			continue
		}
		isHead := en.idx >= head.start && (head.end == -1 || en.idx < head.end)
		if !s.haveBackendSpace(isHead) {
			kept = append(kept, en)
			continue
		}
		s.enterScheduler(en.idx)
		moved++
	}
	s.dq = kept
}

func (s *sim) haveBackendSpace(isHead bool) bool {
	robLimit, schedLimit := s.cfg.ROBSize, s.cfg.SchedSize
	if !isHead {
		robLimit -= s.cfg.ROBReserve
		schedLimit -= s.cfg.SchedReserve
	}
	return s.robUsed < robLimit && s.schedUsed < schedLimit
}

func (s *sim) enterScheduler(i int) {
	sl := s.at(i)
	sl.dispC = int32(s.cycle)
	sl.state = stInSched
	s.robUsed++
	s.schedUsed++
	if s.polled {
		s.enterSchedulerPolled(i)
	} else {
		s.enterSchedulerEvent(i)
	}
}

// -------------------------------------------------------------- dispatch

// classifyMemDep fixes, at rename time, how a load's memory dependence is
// handled: synchronized (memWait) when the producing store is in the same
// task or the store-set predictor flags it, speculative (memSpec)
// otherwise.
func (s *sim) classifyMemDep(i int, t *task) {
	// Reset for every instruction: a re-dispatch after a squash
	// re-classifies.
	sl := s.at(i)
	sl.memWait, sl.memSpec = never, never
	e := &s.tr[i]
	if !e.IsLoad() {
		return
	}
	p := int(s.deps.MemProd[i])
	if p < 0 {
		return
	}
	if p >= t.start || s.ss.predicts(e.PC, s.tr[p].PC) {
		sl.memWait = int32(p)
	} else {
		sl.memSpec = int32(p)
	}
}

func (s *sim) dispatch() {
	budget := s.cfg.Width
	for ti := 0; ti < len(s.tasks); ti++ { // live slice: ReclaimROB may shrink it
		t := s.tasks[ti]
		isHead := ti == 0
		for budget > 0 {
			i := t.dispIdx
			if i >= t.fetchIdx {
				break
			}
			sl := s.at(i)
			if sl.state != stFetched || int64(sl.fetchC)+int64(s.cfg.FrontEndDepth) > s.cycle {
				break
			}
			s.classifyMemDep(i, t)

			// Collect inter-task producers that have not yet dispatched:
			// the rename-stage dependence predictors divert such
			// consumers.
			var prods [3]int32
			np := 0
			for _, p := range sl.regProd {
				if p >= 0 && int(p) < t.start && s.dispOf(int(p)) == never {
					prods[np] = p
					np++
				}
			}
			if p := sl.memWait; p >= 0 && int(p) < t.start && s.dispOf(int(p)) == never {
				prods[np] = p
				np++
			}

			if np > 0 && s.cfg.DivertQSize > 0 {
				if len(s.dq) >= s.cfg.DivertQSize {
					break
				}
				sl.state = stDiverted
				s.dq = append(s.dq, dqEntry{idx: i, prods: prods, n: uint8(np)})
				s.stats.Diverted++
				if s.tel != nil {
					s.tel.dqOccupancy.Observe(int64(len(s.dq)))
					s.emit(telemetry.EvDivert, t.id, int64(i), int64(len(s.dq)))
				}
				t.dispIdx++
				budget--
				continue
			}
			if !s.haveBackendSpace(isHead) {
				// Future-work extension: reclaim the youngest task's ROB
				// entries when they starve the head.
				if isHead && s.cfg.ReclaimROB && s.robUsed >= s.cfg.ROBSize && len(s.tasks) > 1 {
					s.reclaimYoungest()
					if s.haveBackendSpace(isHead) {
						continue
					}
				}
				break
			}
			s.enterScheduler(i)
			t.dispIdx++
			budget--
		}
	}
}

// ---------------------------------------------------------------- fetch

func (s *sim) taskEligible(t *task) bool {
	if t.fetchDone(len(s.tr)) {
		return false
	}
	if t.pendingRedirect >= 0 {
		d := s.at(t.pendingRedirect).doneC
		if d == never {
			return false
		}
		resume := int64(d) + int64(s.cfg.RedirectPenalty)
		if s.cycle < resume {
			return false
		}
		if s.tel != nil {
			s.emit(telemetry.EvBranchResolve, t.id, int64(t.pendingRedirect), 0)
		}
		t.pendingRedirect = -1
	}
	if t.stallUntil > s.cycle {
		return false
	}
	if t.fetchIdx-t.dispIdx >= s.cfg.FetchBufPerTask {
		return false
	}
	return true
}

func (s *sim) fetch() {
	// Biased ICount: the head (least speculative) task always gets a slot
	// when it can fetch; remaining slots go to the eligible tasks with the
	// fewest in-flight instructions (ties to the older task). Each task's
	// eligibility is evaluated at most once per cycle, and the younger
	// tasks' only when a slot is left after the head: taskEligible has side
	// effects (it resolves a pending redirect).
	chosen := s.chosen[:0]
	if len(s.tasks) > 0 && s.taskEligible(s.tasks[0]) {
		chosen = append(chosen, s.tasks[0])
	}
	want := s.cfg.FetchTasksPerCycle
	if len(chosen) < want && len(s.tasks) > 1 {
		first := len(chosen)
		for _, t := range s.tasks[1:] {
			if s.taskEligible(t) {
				chosen = append(chosen, t)
			}
		}
		// Selection by fewest in-flight: move each pick to the front of
		// the unpicked tail, keeping the rest in task order.
		for pos := first; pos < want && pos < len(chosen); pos++ {
			b := pos
			for k := pos + 1; k < len(chosen); k++ {
				if chosen[k].inflight < chosen[b].inflight {
					b = k
				}
			}
			best := chosen[b]
			copy(chosen[pos+1:b+1], chosen[pos:b])
			chosen[pos] = best
		}
		chosen = chosen[:min(want, len(chosen))]
	}
	s.chosen = chosen
	if len(chosen) == 0 {
		return
	}
	bw := s.cfg.Width / len(chosen)
	for _, t := range chosen {
		s.fetchTask(t, bw)
	}
}

func (s *sim) fetchTask(t *task, bw int) {
	n := len(s.tr)
	for f := 0; f < bw; f++ {
		i := t.fetchIdx
		if (t.end != -1 && i >= t.end) || i >= n {
			return
		}
		if t.fetchIdx-t.dispIdx >= s.cfg.FetchBufPerTask {
			return
		}
		e := &s.tr[i]

		// I-cache: accessing a new line may miss and stall this task.
		line := s.caches.L1I.LineOf(e.PC) + 1
		if line != t.lastLine {
			lat := s.caches.L1I.Access(e.PC)
			t.lastLine = line
			if lat > 0 {
				t.stallUntil = s.cycle + int64(lat)
				s.stats.ICacheStallCycle += int64(lat)
				if s.tel != nil {
					s.emit(telemetry.EvICacheStall, t.id, int64(e.PC), int64(lat))
				}
				return
			}
		}

		if i >= s.hi {
			s.extend(i)
		}
		sl := s.at(i)
		sl.fetchC = int32(s.cycle)
		sl.state = stFetched
		t.inflight++
		t.fetchIdx++

		s.trySpawn(t, i, e.PC)

		// Control flow: at most one taken branch per task per cycle, and
		// mispredicts stop this task's fetch until resolution.
		stop := false
		switch {
		case e.IsCondBranch():
			pred := s.gshare.Predict(e.PC, t.hist)
			actual := e.Taken()
			s.gshare.Update(e.PC, t.hist, actual)
			t.hist = s.gshare.PushHistory(t.hist, actual)
			if pred != actual {
				s.stats.Mispredicts++
				if s.tel != nil {
					s.emit(telemetry.EvMispredict, t.id, int64(i), int64(e.PC))
				}
				t.pendingRedirect = i
				s.chargeForeclosure(t)
				s.chargeColdStart(t, i)
				stop = true
			} else if actual {
				stop = true
			}
		case e.IsCall():
			t.ras.Push(e.PC + isa.InstSize)
			if e.IsIndirect() { // jalr
				s.predictIndirect(t, i, e)
			}
			stop = true
		case e.IsReturn():
			pred, ok := t.ras.Pop()
			if !ok || pred != s.t.NextPC(i) {
				s.stats.Mispredicts++
				if s.tel != nil {
					s.emit(telemetry.EvMispredict, t.id, int64(i), int64(e.PC))
				}
				t.pendingRedirect = i
				s.chargeForeclosure(t)
			}
			stop = true
		case e.IsIndirect(): // jr through a jump table
			s.predictIndirect(t, i, e)
			stop = true
		case e.Op == isa.OpJ:
			stop = true
		}
		if stop {
			return
		}
	}
}

func (s *sim) predictIndirect(t *task, i int, e *trace.Entry) {
	pred, ok := s.btb.Predict(e.PC)
	next := s.t.NextPC(i)
	s.btb.Update(e.PC, next)
	if !ok || pred != next {
		s.stats.Mispredicts++
		if s.tel != nil {
			s.emit(telemetry.EvMispredict, t.id, int64(i), int64(e.PC))
		}
		t.pendingRedirect = i
		s.chargeForeclosure(t)
	}
}

// ---------------------------------------------------------------- spawn

func (s *sim) trySpawn(t *task, i int, pc uint64) {
	if s.src == nil || len(s.tasks) >= s.cfg.MaxTasks {
		return
	}
	if s.cfg.SpawnFromTailOnly && t != s.tasks[len(s.tasks)-1] {
		// The tail-only rule forecloses this task's spawns. If one was
		// actually viable, remember it: should this task then suffer a
		// mispredict that the foreclosed hop would have hidden, the spawn
		// point that created the current tail is charged (the "dynamic
		// feedback about which tasks are profitable").
		if !t.blockedSpawn && s.viableSpawn(t, i, pc) {
			t.blockedSpawn = true
		}
		return
	}
	spawns := s.src.SpawnsAt(pc)
	if len(spawns) == 0 {
		return
	}
	// Finite hint cache (optional): a spawn point whose entry is not
	// resident costs this opportunity; the entry is filled on demand.
	if s.hintTags != nil {
		idx := (pc >> 2) & uint64(len(s.hintTags)-1)
		if s.hintTags[idx] != pc {
			s.hintTags[idx] = pc
			s.stats.HintMisses++
			return
		}
	}
	for _, sp := range spawns {
		if s.mask != nil && s.mask.Contains(sp.From, uint8(sp.Kind)) {
			// Suppressed site: skip without counting a rejection or touching
			// attribution — the site must charge nothing, as if the analysis
			// had never emitted it (VerifyAttribution relies on this).
			continue
		}
		if !s.spawnAllowed(sp.From) {
			s.stats.SpawnsRejected++
			if s.att != nil {
				s.att.Site(sp.From, uint8(sp.Kind)).Rejected++
			}
			continue
		}
		k := s.t.NextOccurrence(sp.Target, i)
		if k < 0 {
			continue
		}
		dist := k - i
		if dist < s.cfg.MinSpawnDistance || dist > s.cfg.MaxSpawnDistance {
			s.stats.SpawnsRejected++
			if s.att != nil {
				s.att.Site(sp.From, uint8(sp.Kind)).Rejected++
			}
			continue
		}
		if t.end != -1 && k >= t.end {
			continue
		}
		// The spawning task's segment length is now fixed: tiny fragments
		// are unprofitable, solid cuts reinforce their spawn point.
		if k-t.start < s.cfg.ProfitMinTaskLen {
			s.scoreSpawn(t.spawnFrom, -2)
		} else {
			s.scoreSpawn(t.spawnFrom, 1)
		}
		nt := s.newTask(s.cfg.RASDepth)
		nt.id = s.nextTaskID
		nt.start = k
		nt.end = t.end
		nt.fetchIdx = k
		nt.dispIdx = k
		nt.pendingRedirect = -1
		nt.hist = t.hist
		nt.stallUntil = s.cycle + int64(s.cfg.SpawnLatency)
		nt.spawnFrom = sp.From
		nt.spawnKind = uint8(sp.Kind)
		nt.spawnCycle = s.cycle
		t.ras.CloneInto(nt.ras)
		s.nextTaskID++
		t.end = k
		// Insert after t (keeps tasks ordered by segment start).
		pos := 0
		for j, x := range s.tasks {
			if x == t {
				pos = j + 1
				break
			}
		}
		s.tasks = append(s.tasks, nil)
		copy(s.tasks[pos+1:], s.tasks[pos:])
		s.tasks[pos] = nt
		s.stats.SpawnsTaken++
		s.stats.SpawnsByKind[sp.Kind]++
		if s.att != nil {
			s.att.Site(sp.From, uint8(sp.Kind)).Spawns++
		}
		if s.tel != nil {
			s.emit(telemetry.EvTaskSpawn, nt.id, int64(k), int64(sp.Kind))
		}
		return
	}
}

// viableSpawn reports whether a spawn at pc would have been taken were the
// task allowed to spawn.
func (s *sim) viableSpawn(t *task, i int, pc uint64) bool {
	for _, sp := range s.src.SpawnsAt(pc) {
		if s.mask != nil && s.mask.Contains(sp.From, uint8(sp.Kind)) {
			continue // masked sites are never viable
		}
		if !s.spawnAllowed(sp.From) {
			continue
		}
		k := s.t.NextOccurrence(sp.Target, i)
		if k < 0 {
			continue
		}
		dist := k - i
		if dist < s.cfg.MinSpawnDistance || dist > s.cfg.MaxSpawnDistance {
			continue
		}
		if t.end != -1 && k >= t.end {
			continue
		}
		return true
	}
	return false
}

// chargeForeclosure penalizes the spawn point whose task jumped over t's
// remaining region (t's immediate successor) when a foreclosed hop would
// have hidden a mispredict that just occurred in that region.
func (s *sim) chargeForeclosure(t *task) {
	if !t.blockedSpawn {
		return
	}
	t.blockedSpawn = false
	s.stats.Foreclosures++
	for i, x := range s.tasks {
		if x == t {
			if i+1 < len(s.tasks) {
				succ := s.tasks[i+1]
				s.scoreSpawn(succ.spawnFrom, -1)
				if s.att != nil {
					s.att.Site(succ.spawnFrom, succ.spawnKind).Foreclosures++
				}
			} else if s.att != nil {
				// t became the tail again before the mispredict
				// resolved: no successor is left to blame.
				s.att.UnattributedForeclosures++
			}
			return
		}
	}
}

// chargeColdStart penalizes a spawn point whose child mispredicts right
// after birth: the fork paid its cost (cold local history) without covering
// any distance yet.
func (s *sim) chargeColdStart(t *task, i int) {
	if t.spawnFrom != 0 && i-t.start < 12 {
		s.scoreSpawn(t.spawnFrom, -1)
	}
}

// ------------------------------------------------------------ violations

func (s *sim) processViolations() {
	if len(s.viols) == 0 {
		return
	}
	alive := func(v violation) bool {
		// The load may have been squashed (and perhaps refetched) since
		// the violation was queued; the recorded condition must still hold.
		l, d := s.at(v.load), s.at(v.store).doneC
		return l.state >= stIssued && l.state != stRetired &&
			l.issueC != never && d != never && l.issueC < d
	}
	chosen := violation{load: -1}
	kept := s.viols[:0]
	for _, v := range s.viols {
		if !alive(v) {
			continue
		}
		if v.detect > s.cycle {
			kept = append(kept, v)
			continue
		}
		if chosen.load < 0 || v.load < chosen.load {
			if chosen.load >= 0 {
				kept = append(kept, chosen)
			}
			chosen = v
		} else {
			kept = append(kept, v)
		}
	}
	s.viols = kept
	if chosen.load >= 0 {
		s.squash(chosen)
	}
}

// squash handles a detected memory-dependence violation: the violating task
// and all tasks beyond it are squashed, the violating task restarts at the
// offending load, and the store-set predictor learns the dependence so
// future instances synchronize instead.
func (s *sim) squash(v violation) {
	s.stats.Violations++
	s.ss.train(s.tr[v.load].PC, s.tr[v.store].PC)

	j := s.taskIdxOf(v.load)
	if j < 0 {
		// The containing task already vanished; the violation still
		// counted machine-wide, so the table records it as unowned.
		if s.att != nil {
			s.att.UnattributedViolations++
		}
		return
	}

	vt := s.tasks[j]
	s.scoreSpawn(vt.spawnFrom, -2)
	squashedBefore := s.stats.SquashedInstrs
	s.resetRangeCharged(vt, v.load, vt.fetchIdx)
	for _, t := range s.tasks[j+1:] {
		s.resetRangeCharged(t, t.start, t.fetchIdx)
	}
	if s.att != nil {
		s.att.Site(vt.spawnFrom, vt.spawnKind).SquashViolation++
		// The violating task restarts in place; only its descendants
		// leave the machine, their whole lifetime wasted.
		for _, t := range s.tasks[j+1:] {
			st := s.att.Site(t.spawnFrom, t.spawnKind)
			st.SquashCollateral++
			st.WastedCycles += s.cycle - t.spawnCycle
		}
	}
	if s.tel != nil {
		s.emit(telemetry.EvViolation, vt.id, int64(v.load), int64(v.store))
		for _, t := range s.tasks[j+1:] {
			s.taskEnded(t, false)
			s.emit(telemetry.EvTaskSquash, t.id, int64(t.start), int64(t.fetchIdx))
		}
		s.tel.squashDepth.Observe(s.stats.SquashedInstrs - squashedBefore)
	}
	for _, t := range s.tasks[j+1:] {
		s.freeTask(t)
	}
	s.tasks = s.tasks[:j+1]

	vt.end = -1 // becomes the tail again
	vt.fetchIdx = v.load
	if vt.dispIdx > v.load {
		vt.dispIdx = v.load
	}
	vt.pendingRedirect = -1
	vt.stallUntil = s.cycle + int64(s.cfg.RedirectPenalty) + 1
	vt.lastLine = 0
	vt.blockedSpawn = false
	lo := vt.start
	if s.retireIdx > lo {
		lo = s.retireIdx
	}
	vt.inflight = v.load - lo
	if vt.inflight < 0 {
		vt.inflight = 0
	}

	s.purgeFrom(v.load)
}

// resetRangeCharged rolls back [lo, hi) and attributes the squashed
// instructions to the owning task's spawn site, so per-site
// SquashedInstrs sums exactly to Stats.SquashedInstrs.
func (s *sim) resetRangeCharged(t *task, lo, hi int) {
	if s.att == nil {
		s.resetRange(lo, hi)
		return
	}
	before := s.stats.SquashedInstrs
	s.resetRange(lo, hi)
	s.att.Site(t.spawnFrom, t.spawnKind).SquashedInstrs += s.stats.SquashedInstrs - before
}

// resetRange rolls back all per-instruction pipeline state for trace
// entries [lo, hi), releasing their backend resources.
func (s *sim) resetRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		sl := s.at(i)
		switch sl.state {
		case stNone, stRetired:
			continue
		case stInSched:
			s.schedUsed--
			s.robUsed--
			// Eagerly unlink i's wake-list registrations: the link storage
			// is reused if i refetches, so a stale edge would cross-link the
			// producer's list.
			if !s.polled {
				s.unlinkWakeEdges(i)
			}
		case stIssued:
			s.robUsed--
			if p := sl.memSpec; p >= 0 && s.doneOf(int(p)) == never {
				s.unlinkWatch(int(p), int32(i))
			}
		}
		prod := sl.regProd // derived from the trace, not pipeline state
		*sl = freshSlot
		sl.regProd = prod
		s.stats.SquashedInstrs++
	}
}

// purgeFrom eagerly drops polled-scheduler, divert-queue and pending
// violation entries at trace index >= lo: a refetched instruction re-enters
// those structures, and a stale duplicate entry would otherwise alias it.
// (Wake and watch lists were already unlinked entry by entry in resetRange;
// the event scheduler's wheel and ready queue validate their entries
// lazily, see sched.go.)
func (s *sim) purgeFrom(lo int) {
	if s.polled {
		s.purgeSchedPolled(lo)
	}
	keptD := s.dq[:0]
	for _, en := range s.dq {
		if en.idx < lo {
			keptD = append(keptD, en)
		}
	}
	s.dq = keptD
	keptV := s.viols[:0]
	for _, w := range s.viols {
		if w.load < lo && w.store < lo {
			keptV = append(keptV, w)
		}
	}
	s.viols = keptV
}

// reclaimYoungest implements the ReclaimROB extension: squash the youngest
// task outright so the resource-starved head can dispatch. The reclaimed
// work refetches later (the segment merges back into the new tail).
func (s *sim) reclaimYoungest() {
	if len(s.tasks) < 2 {
		return
	}
	tail := s.tasks[len(s.tasks)-1]
	if s.tel != nil {
		s.taskEnded(tail, false)
		s.emit(telemetry.EvReclaim, tail.id, int64(tail.start), int64(tail.fetchIdx))
	}
	s.resetRangeCharged(tail, tail.start, tail.fetchIdx)
	s.purgeFrom(tail.start)
	s.tasks = s.tasks[:len(s.tasks)-1]
	newTail := s.tasks[len(s.tasks)-1]
	newTail.end = tail.end
	s.scoreSpawn(tail.spawnFrom, -1)
	if s.att != nil {
		st := s.att.Site(tail.spawnFrom, tail.spawnKind)
		st.SquashReclaim++
		st.WastedCycles += s.cycle - tail.spawnCycle
	}
	s.freeTask(tail)
	s.stats.Reclaims++
}
