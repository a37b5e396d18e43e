// Event-driven instruction scheduler: the replacement for the original
// per-cycle rescan of every waiting instruction (kept as the reference
// model in polled.go behind Config.PolledScheduler).
//
// An instruction entering the scheduler counts its not-yet-completed
// producers (pendCnt) and links itself onto each one's wake list, an
// intrusive singly-linked list threaded through the instructions' ring
// slots (arena.go).
// When a producer issues, it walks its wake list once; a waiter whose last
// outstanding producer just completed knows its exact ready cycle
// (max of dispatch+1 and every producer's completion) and is dropped into
// that cycle's bucket of a timing wheel. Each cycle, the current bucket's
// entries move to a ready queue ordered by trace index — the oldest-first
// issue priority the polled scan got from keeping the scheduler slice
// sorted — and up to NumFUs of them issue.
// An instruction is therefore examined O(1) times per residence instead of
// once per cycle.
//
// The wheel has a power-of-two number of buckets, more than the longest
// issue-to-ready distance the latency model can produce (wheelSize), and
// every wakeup is for a future cycle, so bucket cycle&mask holds exactly
// the wakeups due this cycle: no entry ever waits a full revolution.
//
// Squash safety: wake-list edges of squashed instructions are eagerly
// unlinked in resetRange (lists would otherwise cross-link when a
// refetched instruction re-registers), while wheel and ready-queue entries
// are validated lazily — an entry issues only if its instruction is still
// unretired and satisfies exactly the polled model's ready() condition at
// that moment. A stale entry therefore issues nothing early, and a
// duplicate of a live, ready instruction changes nothing: that
// instruction's own wakeup already fell due (its ready cycle has passed)
// and put it in the ready queue, where duplicates pop together and only
// the first issues.
package machine

import (
	"fmt"

	"repro/internal/cachesim"
)

// Wake-list edges are packed as idx<<2 | slot, where slot 0..1 are the
// register-producer slots and slot 2 is the memWait producer.
const memSlot = 2

// enterSchedulerEvent registers instruction i's outstanding producers and
// schedules its wakeup. Counterpart of the polled path's sorted insert.
func (s *sim) enterSchedulerEvent(i int) {
	e := &s.tr[i]
	sl := s.at(i)
	pend := uint8(0)
	ra := int32(s.cycle) + 1
	for k := 0; k < int(e.NSrc); k++ {
		p := int(s.deps.RegProd[i][k])
		if p < 0 {
			continue
		}
		if d := s.doneOf(p); d == never {
			ps := s.at(p)
			sl.wakeNext[k] = ps.wakeHead
			ps.wakeHead = int32(i)<<2 | int32(k)
			pend++
		} else if d > ra {
			ra = d
		}
	}
	if p := int(sl.memWait); p >= 0 {
		if d := s.doneOf(p); d == never {
			ps := s.at(p)
			sl.wakeNext[memSlot] = ps.wakeHead
			ps.wakeHead = int32(i)<<2 | memSlot
			pend++
		} else if d > ra {
			ra = d
		}
	}
	sl.pendCnt = pend
	sl.readyAt = ra
	if pend == 0 {
		s.pushTime(ra, int32(i))
	}
}

// fireWake walks producer p's wake list after p's completion cycle became
// known. Waiters whose last producer this was get their wakeup scheduled.
func (s *sim) fireWake(p int, done int32) {
	ps := s.at(p)
	e := ps.wakeHead
	if e < 0 {
		return
	}
	ps.wakeHead = -1
	for e >= 0 {
		i, k := int(e>>2), e&3
		w := s.at(i)
		e = w.wakeNext[k]
		if done > w.readyAt {
			w.readyAt = done
		}
		if w.pendCnt--; w.pendCnt == 0 {
			s.pushTime(w.readyAt, int32(i))
		}
	}
}

// unlinkWakeEdges removes squashed instruction i's wake-list registrations
// from its still-outstanding producers. Only producers whose completion is
// still unknown can hold an edge for i (a completed producer consumed its
// whole list when it issued).
func (s *sim) unlinkWakeEdges(i int) {
	e := &s.tr[i]
	for k := 0; k < int(e.NSrc); k++ {
		if p := int(s.deps.RegProd[i][k]); p >= 0 && s.doneOf(p) == never {
			s.removeWakeEdge(p, int32(i)<<2|int32(k))
		}
	}
	if p := int(s.at(i).memWait); p >= 0 && s.doneOf(p) == never {
		s.removeWakeEdge(p, int32(i)<<2|memSlot)
	}
}

func (s *sim) removeWakeEdge(p int, edge int32) {
	ps := s.at(p)
	after := s.at(int(edge >> 2)).wakeNext[edge&3]
	cur := ps.wakeHead
	if cur == edge {
		ps.wakeHead = after
		return
	}
	for cur >= 0 {
		link := &s.at(int(cur >> 2)).wakeNext[cur&3]
		if *link == edge {
			*link = after
			return
		}
		cur = *link
	}
}

// eventReady mirrors the polled model's ready() test exactly; every issue
// decision flows through it, so stale wheel and ready-queue entries can
// only delay a check, never produce a wrong one. An index below retireIdx
// is stale whatever its (possibly recycled) slot says.
func (s *sim) eventReady(i int) bool {
	if i < s.retireIdx {
		return false
	}
	sl := s.at(i)
	return sl.state == stInSched && sl.pendCnt == 0 &&
		int64(sl.readyAt) <= s.cycle && int64(sl.dispC) < s.cycle
}

// issueEvent is the event-driven issue stage: the current wheel bucket
// moves to the ready queue, then the NumFUs oldest ready instructions
// issue.
func (s *sim) issueEvent() {
	b := &s.wheel[int(s.cycle)&s.wheelMask]
	for _, i := range *b {
		if s.eventReady(int(i)) {
			s.pushReady(i)
		}
	}
	*b = (*b)[:0]
	issued := 0
	for issued < s.cfg.NumFUs && len(s.readyQ) > 0 {
		i := int(s.readyQ[0])
		s.popReady()
		if !s.eventReady(i) {
			continue // stale entry: squashed, reissued, or superseded
		}
		s.issueOne(i)
		issued++
	}
}

// --------------------------------------------------------------- queues

// wheelSize derives the timing wheel's bucket count from the machine: the
// smallest power of two above the longest issue-to-ready distance, which
// is the latency of a load that misses every cache level of the hierarchy
// in use (2 + the L1D and L2 miss latencies) or of a syscall
// (syscallLatency), whichever is larger.
func wheelSize(h *cachesim.Hierarchy) int {
	d := max(2+h.L1D.WorstLatency(), syscallLatency)
	n := 1
	for n <= d {
		n <<= 1
	}
	return n
}

// pushTime schedules instruction idx's wakeup for cycle at, which must lie
// after the current cycle and within the wheel's horizon; anything else
// would be a latency the horizon does not cover, a bug.
func (s *sim) pushTime(at int32, idx int32) {
	if d := int64(at) - s.cycle; d <= 0 || d >= int64(len(s.wheel)) {
		panic(fmt.Sprintf("machine: wakeup of %d at cycle %d is outside the %d-cycle wheel at cycle %d",
			idx, at, len(s.wheel), s.cycle))
	}
	b := &s.wheel[int(at)&s.wheelMask]
	*b = append(*b, idx)
}

// readyQ is a min-heap of trace indices: ready instructions, oldest first.

func (s *sim) pushReady(idx int32) {
	q := append(s.readyQ, idx)
	for c := len(q) - 1; c > 0; {
		p := (c - 1) / 2
		if q[p] <= q[c] {
			break
		}
		q[p], q[c] = q[c], q[p]
		c = p
	}
	s.readyQ = q
}

func (s *sim) popReady() {
	q := s.readyQ
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i, n := 0, len(q); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r] < q[c] {
			c = r
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	s.readyQ = q
}

// ---------------------------------------------------------- watch lists

// Speculative loads that issued past an unfinished store are tracked on the
// store's watch list (intrusive list per store, one link per load — a load
// speculates past at most one store). This replaces watch map[int][]int32.

// watchAdd registers issued load l on store p's watch list.
func (s *sim) watchAdd(p, l int) {
	ps := s.at(p)
	s.at(l).watchNext = ps.watchHead
	ps.watchHead = int32(l)
}

// fireWatch flags loads that issued before store i's data became available.
// The list is walked oldest-registration-first (matching the append order
// of the map-based implementation) so violation records keep their order.
func (s *sim) fireWatch(i int, done int32) {
	is := s.at(i)
	h := is.watchHead
	if h < 0 {
		return
	}
	is.watchHead = -1
	tmp := s.watchTmp[:0]
	for l := h; l >= 0; l = s.at(int(l)).watchNext {
		tmp = append(tmp, l)
	}
	s.watchTmp = tmp
	for k := len(tmp) - 1; k >= 0; k-- {
		li := int(tmp[k])
		if l := s.at(li); l.state >= stIssued && l.state != stRetired &&
			l.issueC != never && l.issueC < done {
			s.viols = append(s.viols, violation{load: li, store: i, detect: int64(done)})
		}
	}
}

// unlinkWatch removes squashed load l from store p's watch list.
func (s *sim) unlinkWatch(p int, l int32) {
	ps := s.at(p)
	after := s.at(int(l)).watchNext
	if ps.watchHead == l {
		ps.watchHead = after
		return
	}
	for cur := ps.watchHead; cur >= 0; {
		link := &s.at(int(cur)).watchNext
		if *link == l {
			*link = after
			return
		}
		cur = *link
	}
}

// --------------------------------------------------------- profit table

// profitTable is the spawn-point profitability store: an open-addressed
// flat map from trigger PC to saturating score, replacing
// profit map[uint64]int. The periodic recovery pass walks the backing
// array directly instead of a map iteration. Key 0 marks an empty slot;
// PC 0 is never scored (scoreSpawn ignores the initial task).
type profitTable struct {
	keys []uint64
	vals []int16
	used int
}

func (t *profitTable) reset() {
	if t.keys == nil {
		t.keys = make([]uint64, 1024)
		t.vals = make([]int16, 1024)
	}
	clear(t.keys)
	t.used = 0
}

func (t *profitTable) get(pc uint64) int {
	mask := uint64(len(t.keys) - 1)
	i := (pc * 0x9E3779B97F4A7C15) >> 32 & mask
	for {
		switch t.keys[i] {
		case pc:
			return int(t.vals[i])
		case 0:
			return 0
		}
		i = (i + 1) & mask
	}
}

func (t *profitTable) set(pc uint64, v int) {
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := (pc * 0x9E3779B97F4A7C15) >> 32 & mask
	for t.keys[i] != 0 {
		if t.keys[i] == pc {
			t.vals[i] = int16(v)
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i] = pc
	t.vals[i] = int16(v)
	t.used++
}

func (t *profitTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]int16, 2*len(oldVals))
	t.used = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.set(k, int(oldVals[i]))
		}
	}
}

// decay applies the periodic +1 recovery to every disabled spawn point.
func (t *profitTable) decay() {
	for i, k := range t.keys {
		if k != 0 && t.vals[i] < 0 {
			t.vals[i]++
		}
	}
}
