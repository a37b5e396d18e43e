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
// (max of dispatch+1 and every producer's completion) and is pushed onto a
// time-ordered heap. Each cycle, due entries move to a ready queue ordered
// by trace index — the oldest-first issue priority the polled scan got from
// keeping the scheduler slice sorted — and up to NumFUs of them issue.
// An instruction is therefore examined O(1) times per residence instead of
// once per cycle.
//
// Squash safety: wake-list edges of squashed instructions are eagerly
// unlinked in resetRange (lists would otherwise cross-link when a
// refetched instruction re-registers), while heap entries are validated
// lazily — a popped entry issues only if the instruction still satisfies
// exactly the polled model's ready() condition, so a stale entry can never
// issue early and a live instruction always has a fresh entry pending.
package machine

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
// decision flows through it, so stale heap entries can only delay a check,
// never produce a wrong one.
func (s *sim) eventReady(i int) bool {
	sl := s.at(i)
	return sl.state == stInSched && sl.pendCnt == 0 &&
		int64(sl.readyAt) <= s.cycle && int64(sl.dispC) < s.cycle
}

// issueEvent is the event-driven issue stage: due wakeups move to the
// ready queue, then the NumFUs oldest ready instructions issue.
func (s *sim) issueEvent() {
	for len(s.timeQ) > 0 && s.timeQ[0]>>32 <= s.cycle {
		i := int(int32(s.popTime()))
		if s.eventReady(i) {
			s.pushReady(int32(i))
		}
	}
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

// ---------------------------------------------------------------- heaps

// timeQ is a min-heap of at<<32|idx: wakeups ordered by ready cycle.
// readyQ is a min-heap of trace indices: ready instructions, oldest first.

func (s *sim) pushTime(at int32, idx int32) {
	q := append(s.timeQ, int64(at)<<32|int64(uint32(idx)))
	for c := len(q) - 1; c > 0; {
		p := (c - 1) / 2
		if q[p] <= q[c] {
			break
		}
		q[p], q[c] = q[c], q[p]
		c = p
	}
	s.timeQ = q
}

func (s *sim) popTime() int64 {
	q := s.timeQ
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	siftDownInt64(q, 0)
	s.timeQ = q
	return top
}

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
	siftDownInt32(q, 0)
	s.readyQ = q
}

func siftDownInt64(q []int64, i int) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && q[r] < q[c] {
			c = r
		}
		if q[i] <= q[c] {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

func siftDownInt32(q []int32, i int) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && q[r] < q[c] {
			c = r
		}
		if q[i] <= q[c] {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// purgeQueues drops scheduler-queue entries at trace index >= lo after a
// squash (the event-mode counterpart of filtering the polled sched slice).
func (s *sim) purgeQueues(lo int) {
	tq := s.timeQ[:0]
	for _, e := range s.timeQ {
		if int(int32(e)) < lo {
			tq = append(tq, e)
		}
	}
	s.timeQ = tq
	for i := len(tq)/2 - 1; i >= 0; i-- {
		siftDownInt64(tq, i)
	}
	rq := s.readyQ[:0]
	for _, e := range s.readyQ {
		if int(e) < lo {
			rq = append(rq, e)
		}
	}
	s.readyQ = rq
	for i := len(rq)/2 - 1; i >= 0; i-- {
		siftDownInt32(rq, i)
	}
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
