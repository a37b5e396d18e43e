package telemetry

import "sync"

// HistSet is a mutex-guarded collection of named histograms that may be
// observed from concurrent goroutines: HTTP handlers and pool workers.
// Registry histogram handles are deliberately single-writer
// (they sit on the simulation hot path); HistSet is the service-side
// counterpart: Observe takes a lock, and Fill clones a consistent snapshot
// of every histogram into a single-writer dump registry.
//
// Names may carry a label suffix ("x.y_ms{route=\"POST /v1/jobs\"}"), one
// histogram per label value; WriteSummary prints each under its full name.
type HistSet struct {
	mu sync.Mutex
	hs map[string]*Histogram
}

// NewHistSet returns an empty set.
func NewHistSet() *HistSet {
	return &HistSet{hs: map[string]*Histogram{}}
}

// Observe records one sample into the named histogram, creating it with
// the given bucket bounds on first use (later bounds are ignored, like
// Registry.Histogram).
func (s *HistSet) Observe(name string, bounds []int64, v int64) {
	s.mu.Lock()
	h, ok := s.hs[name]
	if !ok {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{name: name, bounds: b, counts: make([]uint64, len(b)+1)}
		s.hs[name] = h
	}
	h.Observe(v)
	s.mu.Unlock()
}

// Fill clones every histogram into reg (a consistent point-in-time
// snapshot: the set lock is held across all clones).
func (s *HistSet) Fill(reg *Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.hs {
		reg.AttachHistogram(h.Clone())
	}
}
