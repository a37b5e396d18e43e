// The original polled scheduler, kept verbatim behind
// Config.PolledScheduler as the permanent reference model for the
// event-driven scheduler in sched.go. The differential tests run every
// workload and policy through both paths and require identical Result and
// Stats, so every change to the fast path stays checked against it.
package machine

import "sort"

// issuePolled rescans every scheduler entry each cycle, issuing up to
// NumFUs ready instructions in trace order.
func (s *sim) issuePolled() {
	issued := 0
	kept := s.sched[:0]
	for _, idx := range s.sched {
		i := int(idx)
		if s.at(i).state != stInSched { // squashed since
			continue
		}
		if issued >= s.cfg.NumFUs || !s.ready(i) {
			kept = append(kept, idx)
			continue
		}
		issued++
		s.issueOne(i)
	}
	s.sched = kept
}

// ready reports whether instruction i can issue this cycle: dispatched on
// an earlier cycle, with every register producer and any synchronized
// store completed.
func (s *sim) ready(i int) bool {
	sl := s.at(i)
	if int64(sl.dispC) >= s.cycle {
		return false
	}
	for _, p := range sl.regProd {
		if p >= 0 && !s.doneBy(int(p)) {
			return false
		}
	}
	if p := int(sl.memWait); p >= 0 && !s.doneBy(p) {
		return false
	}
	return true
}

// doneBy reports whether producer p has completed by the current cycle.
func (s *sim) doneBy(p int) bool {
	d := s.doneOf(p)
	return d != never && int64(d) <= s.cycle
}

// enterSchedulerPolled inserts i into the sorted scheduler slice (oldest-
// first issue priority) with a copy-insert.
func (s *sim) enterSchedulerPolled(i int) {
	pos := sort.Search(len(s.sched), func(k int) bool { return s.sched[k] > int32(i) })
	s.sched = append(s.sched, 0)
	copy(s.sched[pos+1:], s.sched[pos:])
	s.sched[pos] = int32(i)
}

// purgeSchedPolled drops scheduler entries at trace index >= lo.
func (s *sim) purgeSchedPolled(lo int) {
	kept := s.sched[:0]
	for _, idx := range s.sched {
		if int(idx) < lo {
			kept = append(kept, idx)
		}
	}
	s.sched = kept
}
