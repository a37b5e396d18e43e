package core

import (
	"repro/internal/trace"
)

// Table maps a trigger PC to the spawns available when fetch reaches it.
type Table map[uint64][]Spawn

// Source supplies spawn opportunities to the Task Spawn Unit. Static
// (compiler/profile-generated) tables ignore OnRetire; dynamic sources like
// the reconvergence predictor train on the retirement stream through it.
type Source interface {
	// SpawnsAt returns the spawn opportunities for a fetched PC. The
	// returned slice must not be retained past the next call.
	SpawnsAt(pc uint64) []Spawn
	// OnRetire observes one retired instruction, in retirement order.
	OnRetire(e *trace.Entry)
}

// StaticSource is a Source backed by a fixed table — the model of the
// paper's hint cache loaded from compiler-generated binary sections
// (capacity and conflict effects are not modeled, as in the paper). The
// table is flattened once, at construction, into an open-addressed PC
// index over per-PC spawn lists, so the per-fetch lookup touches no Go
// map. A StaticSource is read-only after construction and may be shared
// by concurrent runs.
type StaticSource struct {
	ids    trace.PCIndex
	spawns [][]Spawn // by PC id
}

// NewStaticSource flattens t into a StaticSource. The spawn lists are
// shared with t, which must not be modified afterwards.
func NewStaticSource(t Table) *StaticSource {
	s := &StaticSource{ids: trace.NewPCIndex(len(t)), spawns: make([][]Spawn, 0, len(t))}
	for pc, sp := range t {
		s.ids.ID(pc)
		s.spawns = append(s.spawns, sp)
	}
	return s
}

// SpawnsAt implements Source.
func (s *StaticSource) SpawnsAt(pc uint64) []Spawn {
	if id := s.ids.Lookup(pc); id >= 0 {
		return s.spawns[id]
	}
	return nil
}

// OnRetire implements Source (static tables do not train; the machine
// skips the call for a StaticSource).
func (s *StaticSource) OnRetire(e *trace.Entry) {}

// Policy selects which spawn categories a configuration uses.
type Policy struct {
	Name  string
	kinds [NumKinds]bool
}

// NewPolicy builds a policy that spawns the given categories.
func NewPolicy(name string, kinds ...Kind) Policy {
	p := Policy{Name: name}
	for _, k := range kinds {
		p.kinds[k] = true
	}
	return p
}

// Includes reports whether the policy spawns category k.
func (p Policy) Includes(k Kind) bool { return p.kinds[k] }

// Table filters the analysis' spawn points down to the policy's categories.
func (p Policy) Table(a *Analysis) Table {
	t := Table{}
	for _, s := range a.Spawns {
		if p.kinds[s.Kind] {
			t[s.From] = append(t[s.From], s)
		}
	}
	return t
}

// Source returns a StaticSource for the policy over the given analysis.
func (p Policy) Source(a *Analysis) *StaticSource {
	return NewStaticSource(p.Table(a))
}

// The individual heuristic policies of Figure 9.
var (
	PolicyLoop    = NewPolicy("loop", KindLoop)
	PolicyLoopFT  = NewPolicy("loopFT", KindLoopFT)
	PolicyProcFT  = NewPolicy("procFT", KindProcFT)
	PolicyHammock = NewPolicy("hammock", KindHammock)
	PolicyOther   = NewPolicy("other", KindOther)
	// PolicyPostdoms is control-equivalent spawning: the full immediate
	// postdominator set.
	PolicyPostdoms = NewPolicy("postdoms", KindLoopFT, KindProcFT, KindHammock, KindOther)
)

// The heuristic combinations of Figure 10.
var (
	PolicyLoopLoopFT       = NewPolicy("loop + loopFT", KindLoop, KindLoopFT)
	PolicyLoopFTProcFT     = NewPolicy("loopFT + procFT", KindLoopFT, KindProcFT)
	PolicyLoopProcFTLoopFT = NewPolicy("loop + procFT + loopFT", KindLoop, KindProcFT, KindLoopFT)
)

// The leave-one-out exclusion policies of Figure 11.
var (
	PolicyPostdomsMinusLoopFT  = NewPolicy("postdoms - loopFT", KindProcFT, KindHammock, KindOther)
	PolicyPostdomsMinusProcFT  = NewPolicy("postdoms - procFT", KindLoopFT, KindHammock, KindOther)
	PolicyPostdomsMinusHammock = NewPolicy("postdoms - hammock", KindLoopFT, KindProcFT, KindOther)
	PolicyPostdomsMinusOthers  = NewPolicy("postdoms - others", KindLoopFT, KindProcFT, KindHammock)
)

// IndividualPolicies returns the Figure 9 policy sweep, in figure order
// (postdoms last).
func IndividualPolicies() []Policy {
	return []Policy{PolicyLoop, PolicyLoopFT, PolicyProcFT, PolicyHammock, PolicyOther, PolicyPostdoms}
}

// CombinationPolicies returns the Figure 10 sweep.
func CombinationPolicies() []Policy {
	return []Policy{PolicyLoopLoopFT, PolicyLoopFTProcFT, PolicyLoopProcFTLoopFT, PolicyPostdoms}
}

// ExclusionPolicies returns the Figure 11 sweep.
func ExclusionPolicies() []Policy {
	return []Policy{
		PolicyPostdomsMinusLoopFT,
		PolicyPostdomsMinusProcFT,
		PolicyPostdomsMinusHammock,
		PolicyPostdomsMinusOthers,
	}
}
