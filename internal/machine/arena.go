package machine

import (
	"sync"

	"repro/internal/cachesim"
)

// slot is the pipeline record of one in-flight trace index. The run keeps
// one ring of slots sized by the machine's window (ringSize), indexed
// i & mask, instead of one array per field sized by the trace: all of an
// instruction's fields share one cache line (the record is padded to 64
// bytes, and the ring's backing array is page-aligned), and the storage
// does not grow with trace length.
type slot struct {
	dispC   int32
	doneC   int32
	state   uint8
	pendCnt uint8 // event scheduler: producers still outstanding
	fetchC  int32
	issueC  int32
	readyAt int32 // event scheduler: earliest issue cycle once pendCnt is 0
	memWait int32 // producer store the load must wait for (synchronized), or -1
	memSpec int32 // producer store the load speculates past (unsynchronized), or -1

	// Heads of this instruction's wake and watch lists (as a producer) and
	// its links on its producers' lists (as a consumer); see sched.go.
	wakeHead  int32
	wakeNext  [3]int32
	watchHead int32
	watchNext int32

	_ [8]byte // pads the record to one 64-byte cache line
}

// freshSlot is the record of an index no task has fetched: the state a
// slot takes when fetch first approaches its index and again when a
// squash rolls it back.
var freshSlot = slot{
	dispC: never, doneC: never, fetchC: never, issueC: never,
	memWait: never, memSpec: never, wakeHead: never, watchHead: never,
}

// ringBatch is how many slots past the fetching index one ring extension
// initializes, so the bookkeeping runs once per batch, not per fetch.
const ringBatch = 64

// ringSize derives the slot ring's length from the machine: every
// instruction between the oldest unretired one and the furthest fetch
// point sits in the ROB, the divert queue or a task's fetch buffer, or in
// one of the gaps of at most MaxSpawnDistance between a task's fetch point
// and its successor's start. A quarter of headroom plus the extension
// batch covers the recently retired indices still read, and the result is
// rounded to a power of two. The size depends on the Config alone, never
// on the trace. A window that still overflows grows the ring (growRing).
func ringSize(cfg Config) int {
	w := cfg.ROBSize + cfg.DivertQSize + cfg.MaxTasks*(cfg.FetchBufPerTask+cfg.MaxSpawnDistance)
	w += w/4 + ringBatch
	n := 1
	for n < w {
		n <<= 1
	}
	return n
}

// arena holds the run state worth recycling across runs, so that a grid of
// simulations reuses one allocation set per worker instead of reallocating
// per machine.Run. Arenas are pooled through a sync.Pool: the harness runs
// NumCPU cells concurrently, so the pool settles at about one arena per
// worker. Nothing in it is sized by the trace.
//
// No slot is cleared on reuse: a slot is initialized when fetch first
// approaches its index (sim.extend), and retired producers are never read
// from it (sim.doneOf, sim.dispOf).
type arena struct {
	ring []slot

	// Event-driven scheduler queues (sched.go). The wheel keeps every
	// bucket it has ever had, so a run's buckets reuse earlier runs'
	// storage.
	wheel  [][]int32
	readyQ []int32

	watchTmp []int32

	profit profitTable

	// Bounded scratch.
	sched     []int32
	dq        []dqEntry
	viols     []violation
	chosen    []*task
	tasks     []*task
	freeTasks []*task

	// caches is the pooled default hierarchy, used only when the Config
	// does not supply its own.
	caches *cachesim.Hierarchy
}

var arenaPool sync.Pool

// getArena returns an arena whose ring holds size slots, with its scratch
// reset.
func getArena(size int) *arena {
	a, _ := arenaPool.Get().(*arena)
	if a == nil {
		a = &arena{}
	}
	a.ensure(size)
	return a
}

func putArena(a *arena) { arenaPool.Put(a) }

// ensure sizes the ring to size slots and resets the scratch state.
func (a *arena) ensure(size int) {
	if cap(a.ring) < size {
		a.ring = make([]slot, size)
	}
	a.ring = a.ring[:size]
	a.readyQ = a.readyQ[:0]
	a.watchTmp = a.watchTmp[:0]
	a.sched = a.sched[:0]
	a.dq = a.dq[:0]
	a.viols = a.viols[:0]
	a.chosen = a.chosen[:0]
	a.tasks = a.tasks[:0]
	a.profit.reset()
}

// wheelOf returns the arena's first n timing-wheel buckets, all empty.
func (a *arena) wheelOf(n int) [][]int32 {
	if len(a.wheel) < n {
		a.wheel = append(a.wheel, make([][]int32, n-len(a.wheel))...)
	}
	w := a.wheel[:n]
	for i := range w {
		w[i] = w[i][:0]
	}
	return w
}

// defaultCaches returns the arena's pooled default hierarchy, reset for a
// new run.
func (a *arena) defaultCaches() *cachesim.Hierarchy {
	if a.caches == nil {
		a.caches = cachesim.DefaultHierarchy()
		return a.caches
	}
	a.caches.Reset()
	return a.caches
}

// bind points the sim at the arena's storage.
func (s *sim) bind(a *arena) {
	s.ar = a
	s.ring = a.ring
	s.ringMask = len(a.ring) - 1
	s.readyQ = a.readyQ
	s.watchTmp = a.watchTmp
	s.profit = &a.profit
	s.sched = a.sched
	s.dq = a.dq
	s.viols = a.viols
	s.chosen = a.chosen
	s.tasks = a.tasks
	s.freeTasks = a.freeTasks
}

// release returns the (possibly grown) storage to the arena and the arena
// to the pool. The sim must not be used afterwards.
func (s *sim) release() {
	a := s.ar
	if a == nil {
		return
	}
	a.ring = s.ring
	a.readyQ = s.readyQ
	a.watchTmp = s.watchTmp
	a.sched = s.sched
	a.dq = s.dq
	a.viols = s.viols
	a.chosen = s.chosen
	// Recycle the remaining live tasks along with the already-freed ones.
	for _, t := range s.tasks {
		s.freeTasks = append(s.freeTasks, t)
	}
	a.tasks = s.tasks[:0]
	a.freeTasks = s.freeTasks
	s.ar = nil
	putArena(a)
}

// ---------------------------------------------------------------- ring
//
// hi is one past the highest index whose slot has been initialized; slot
// i & ringMask holds the newest initialized index congruent to i. Indices
// at or above hi have never been fetched; every index a stage reads is
// below hi, since producers precede their fetched consumers and retire
// checks hi first.
//
// Producers that have retired (p < retireIdx) are answered without the
// ring: doneOf and dispOf read them as "retired at cycle 0", which is
// exactly what warmup used to write for the warm prefix. That keeps the
// outcome of every comparison the stages make, because a retired
// instruction p had dispC[p] < doneC[p] <= the current cycle, and the
// current cycle is >= 1 once anything has retired (the first run cycle
// reads the warm prefix's zeros just as before):
//
//   - dispC == never, doneC == never (divert, wake and watch registration,
//     unlinking): false either way;
//   - dispC >= cycle (divert-queue release): false either way;
//   - doneC > cycle (polled ready): false either way;
//   - doneC > cycle+1 (event ready-cycle max): false either way, so the
//     ready cycle stays cycle+1 or a live producer's completion;
//   - doneC > issueC of a load issuing now (speculation check): false
//     either way.
//
// So a retired index's slot may be recycled. Two reads of possibly retired
// indices need real values: a task's pendingRedirect branch (its
// resolution cycle) and a queued violation's store (processViolations'
// liveness test); liveFloor keeps their slots, and every slot from
// retireIdx up, out of reach of recycling. Every other index a stage reads
// — scheduler, divert-queue and wake/watch list entries — belongs to an
// unretired instruction.

// at returns index i's slot; i must lie in [liveFloor(), hi).
func (s *sim) at(i int) *slot { return &s.ring[i&s.ringMask] }

// doneOf returns producer p's completion cycle, reading a retired producer
// (or a warm-prefix one) as retired at cycle 0.
func (s *sim) doneOf(p int) int32 {
	if p < s.retireIdx {
		return 0
	}
	return s.ring[p&s.ringMask].doneC
}

// dispOf returns producer p's dispatch cycle under doneOf's rule.
func (s *sim) dispOf(p int) int32 {
	if p < s.retireIdx {
		return 0
	}
	return s.ring[p&s.ringMask].dispC
}

// liveFloor returns the lowest index whose slot must keep its own record.
func (s *sim) liveFloor() int {
	f := s.retireIdx
	for _, t := range s.tasks {
		if p := t.pendingRedirect; p >= 0 && p < f {
			f = p
		}
	}
	for _, v := range s.viols {
		if v.store < f {
			f = v.store
		}
	}
	return f
}

// extend initializes slots from hi through at least index i (up to
// ringBatch further), recycling only slots of indices below liveFloor. When
// even index i would evict a live slot, the ring grows instead; a slot is
// never aliased.
func (s *sim) extend(i int) {
	hi := min(len(s.tr), i+ringBatch)
	floor := s.liveFloor()
	for hi-len(s.ring) > floor {
		if i+1-len(s.ring) <= floor {
			hi = floor + len(s.ring) // a shorter batch fits
			break
		}
		s.growRing()
	}
	for j := s.hi; j < hi; j++ {
		s.ring[j&s.ringMask] = freshSlot
	}
	s.hi = hi
}

// growRing doubles the ring, re-laying out the slots of the newest
// len(ring) indices below hi. List links hold trace indices, not slot
// positions, so they survive the move.
func (s *sim) growRing() {
	ring := make([]slot, 2*len(s.ring))
	mask := len(ring) - 1
	for j := max(0, s.hi-len(s.ring)); j < s.hi; j++ {
		ring[j&mask] = s.ring[j&s.ringMask]
	}
	s.ring, s.ringMask = ring, mask
}
