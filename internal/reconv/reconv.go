// Package reconv implements a dynamic reconvergence predictor in the style
// of Collins, Tullsen and Wang (MICRO-37, 2004), the mechanism Section 4.4
// of the paper trains on the retirement stream as a run-time substitute for
// compiler-generated immediate postdominator information.
//
// For each static conditional branch and jump-table indirect jump the
// predictor maintains a candidate reconvergence point and a confidence
// counter, trained by per-instance monitors over the retirement stream:
//
//   - CatBelowBranch: the common case — the reconvergence PC lies below
//     the branch in the program layout (forward if/if-else joins, switch
//     continuations, and the fall-throughs of backward loop branches; the
//     paper notes this layout category captures most branches). The
//     candidate starts at the first retired PC above the branch PC and is
//     then *ratcheted*: an instance in which the candidate reconverges
//     raises confidence; an instance in which it never appears proves it
//     was inside one arm (or one switch case), so the candidate advances
//     to the first PC beyond it seen that instance. Repeated misses walk
//     the candidate up to the true join/postdominator.
//   - CatReturn: the monitored region left the function through a return
//     before reconverging; no intrafunction reconvergence is predicted
//     (the paper's predictor likewise has a return-address category).
//
// A branch instance opens a monitor at retirement; the monitor closes when
// the same branch retires again or after a fixed instruction window.
// Predictions are served only above a confidence threshold, so warm-up
// effects — one of the two loss sources the paper reports for this scheme —
// are modeled naturally.
package reconv

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Category of a learned reconvergence point.
type Category uint8

// Reconvergence categories.
const (
	CatNone Category = iota
	CatBelowTarget
	CatBelowBranch
	CatReturn
)

// Config tunes the predictor.
type Config struct {
	// Window is the monitoring window in retired instructions.
	Window int
	// ConfThreshold is the confidence needed before a reconvergence point
	// is served as a spawn target.
	ConfThreshold int
	// MaxEntries caps the number of tracked static branches (0 =
	// unlimited). The paper does not model capacity effects in the
	// reconvergence structure, so the default is unlimited.
	MaxEntries int
}

// DefaultConfig matches the evaluation setup: a generous window and a small
// warm-up threshold.
func DefaultConfig() Config {
	return Config{Window: 512, ConfThreshold: 2}
}

type entry struct {
	candidate  uint64
	confidence int
	category   Category
	// monitor state for the currently watched instance
	active       bool
	sawBelow     bool
	below        uint64 // first retired PC > branch PC this instance
	sawCandidate bool
	aboveCand    uint64 // first retired PC > candidate this instance
	expiresAt    uint64
	branchPC     uint64
	depth        int // call depth at monitor open: only same-frame PCs count
}

// Predictor learns reconvergence points from the retirement stream. Its
// per-branch entries live in a slice indexed by an open-addressed PC
// index, so the per-retire path touches no Go map.
type Predictor struct {
	cfg     Config
	ids     trace.PCIndex
	entries []entry // by PC id
	active  []int32 // ids of entries with an open monitor
	retired uint64
	depth   int // call depth observed in the retirement stream
}

// New creates an empty predictor.
func New(cfg Config) *Predictor {
	if cfg.Window <= 0 {
		cfg.Window = 512
	}
	return &Predictor{cfg: cfg}
}

// entryOf returns the entry of the branch at pc, or nil when untracked.
func (p *Predictor) entryOf(pc uint64) *entry {
	if id := p.ids.Lookup(pc); id >= 0 {
		return &p.entries[id]
	}
	return nil
}

// Observe consumes one retired instruction. Call it in retirement order.
func (p *Predictor) Observe(e *trace.Entry) {
	p.retired++

	// Feed open monitors.
	if len(p.active) > 0 {
		kept := p.active[:0]
		for _, id := range p.active {
			en := &p.entries[id]
			if !en.active {
				continue
			}
			closed := false
			switch {
			case p.retired > en.expiresAt:
				p.close(en, CatNone)
				closed = true
			case p.depth < en.depth:
				// The frame returned. If a same-frame reconvergence was
				// already observed this is an ordinary close; otherwise
				// the branch reconverges only past the return.
				if en.sawBelow {
					p.close(en, CatNone)
				} else {
					p.close(en, CatReturn)
				}
				closed = true
			case p.depth > en.depth:
				// Inside a callee: its PCs are not control equivalent to
				// the monitored branch; ignore them.
			case e.PC != en.branchPC:
				if e.PC > en.branchPC && !en.sawBelow {
					en.sawBelow = true
					en.below = e.PC
				}
				if en.candidate != 0 {
					if e.PC == en.candidate {
						en.sawCandidate = true
					}
					if e.PC > en.candidate && en.aboveCand == 0 {
						en.aboveCand = e.PC
					}
				}
			}
			if !closed {
				kept = append(kept, id)
			}
		}
		p.active = kept
	}

	// Conditional branches and jump-table indirect jumps get monitors;
	// calls and returns reconverge trivially at the return address.
	if e.IsCondBranch() || (e.IsIndirect() && !e.IsReturn() && !e.IsCall()) {
		p.monitor(e.PC)
	}

	// Track call depth: the call itself retires in the caller's frame, the
	// return in the callee's, so depth changes take effect afterwards.
	switch {
	case e.IsCall():
		p.depth++
	case e.IsReturn():
		if p.depth > 0 {
			p.depth--
		}
	}
}

// monitor opens a monitor for this instance of the branch at pc.
func (p *Predictor) monitor(pc uint64) {
	id := p.ids.Lookup(pc)
	if id < 0 {
		if p.cfg.MaxEntries > 0 && len(p.entries) >= p.cfg.MaxEntries {
			return
		}
		id = p.ids.ID(pc)
		p.entries = append(p.entries, entry{})
	}
	en := &p.entries[id]
	if en.active {
		if p.depth != en.depth {
			// A different (deeper) recursive instance of a monitored
			// branch: leave the existing same-frame monitor in place.
			return
		}
		// The same branch retired again in the same frame (a loop): close
		// the previous monitor first.
		p.close(en, CatNone)
		for i, a := range p.active {
			if a == id {
				p.active = append(p.active[:i], p.active[i+1:]...)
				break
			}
		}
	}
	en.active = true
	en.sawBelow = false
	en.sawCandidate = false
	en.aboveCand = 0
	en.branchPC = pc
	en.depth = p.depth
	en.expiresAt = p.retired + uint64(p.cfg.Window)
	p.active = append(p.active, id)
}

// close reconciles a finished monitor into the entry's candidate.
func (p *Predictor) close(en *entry, forced Category) {
	en.active = false
	if forced == CatReturn {
		// Leaving the function before reconverging: remember that so the
		// spawner skips this branch.
		if en.category == CatReturn {
			en.confidence++
		} else {
			en.category = CatReturn
			en.confidence = 1
		}
		return
	}
	if !en.sawBelow {
		return // no information this instance
	}
	switch {
	case en.candidate == 0:
		// First observation: start from the first below-branch PC.
		en.category = CatBelowBranch
		en.candidate = en.below
		en.confidence = 1
	case en.sawCandidate:
		// The candidate reconverged this instance too.
		en.category = CatBelowBranch
		en.confidence++
	default:
		// The candidate did not appear: it was inside one arm (or one
		// switch case), not at the join. Ratchet it forward to the first
		// PC beyond it seen this instance — for a multiway or if-then-else
		// join, repeated misses walk the candidate up to the true
		// postdominator.
		en.category = CatBelowBranch
		if en.aboveCand != 0 {
			en.candidate = en.aboveCand
		} else {
			en.candidate = en.below
		}
		en.confidence = 1
	}
}

// Predict returns the learned reconvergence point for the branch at pc.
// ok is false below the confidence threshold or for return-category
// branches.
func (p *Predictor) Predict(pc uint64) (uint64, bool) {
	en := p.entryOf(pc)
	if en == nil || en.category == CatNone || en.category == CatReturn {
		return 0, false
	}
	if en.confidence < p.cfg.ConfThreshold {
		return 0, false
	}
	return en.candidate, true
}

// CategoryOf exposes the learned category for analysis/tests.
func (p *Predictor) CategoryOf(pc uint64) Category {
	if en := p.entryOf(pc); en != nil {
		return en.category
	}
	return CatNone
}

// Entries returns the number of tracked static branches.
func (p *Predictor) Entries() int { return len(p.entries) }

// Source adapts the predictor into a core.Source: at conditional branches
// it spawns the predicted reconvergence point, and at call instructions it
// spawns the procedure fall-through (the return address is known at decode
// without any compiler help), exactly as Section 4.4 describes.
type Source struct {
	Pred *Predictor
	Prog *isa.Program

	buf [1]core.Spawn
}

// NewSource wraps a predictor for the given program.
func NewSource(pred *Predictor, prog *isa.Program) *Source {
	return &Source{Pred: pred, Prog: prog}
}

// SpawnsAt implements core.Source.
func (s *Source) SpawnsAt(pc uint64) []core.Spawn {
	inst, ok := s.Prog.InstAt(pc)
	if !ok {
		return nil
	}
	switch {
	case inst.IsCondBranch(), inst.Op == isa.OpJR && !inst.IsReturn():
		if tgt, ok := s.Pred.Predict(pc); ok && tgt != pc {
			s.buf[0] = core.Spawn{From: pc, Target: tgt, Kind: core.KindOther}
			return s.buf[:1]
		}
	case inst.IsCall():
		s.buf[0] = core.Spawn{From: pc, Target: pc + isa.InstSize, Kind: core.KindProcFT}
		return s.buf[:1]
	}
	return nil
}

// OnRetire implements core.Source: the predictor trains on the retirement
// stream, modeling warm-up effects.
func (s *Source) OnRetire(e *trace.Entry) { s.Pred.Observe(e) }
