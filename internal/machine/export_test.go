package machine

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Stepper drives one simulation a cycle at a time and exposes its live
// slots, for tests in package machine_test, which import packages that
// import machine (internal/progen) and so cannot live in package machine.
type Stepper struct{ s *sim }

// NewStepper readies a simulation as Run does.
func NewStepper(tr *trace.Trace, deps *trace.Deps, src core.Source, cfg Config) *Stepper {
	return &Stepper{s: newSim(tr, deps, src, cfg)}
}

// Step simulates one cycle. It reports false, without simulating, once the
// whole trace has retired or MaxCycles is reached.
func (x *Stepper) Step() bool {
	s := x.s
	if s.retireIdx >= len(s.tr) || s.cycle >= s.cfg.MaxCycles {
		return false
	}
	s.step()
	return true
}

// Live returns the index range [liveFloor, hi) whose slots hold their own
// records.
func (x *Stepper) Live() (lo, hi int) { return x.s.liveFloor(), x.s.hi }

// Producers returns the register producers held in index i's slot; i must
// lie in Live's range.
func (x *Stepper) Producers(i int) [2]int32 { return x.s.at(i).regProd }

// Retired returns the number of retired trace entries, warm prefix
// included.
func (x *Stepper) Retired() int { return x.s.retireIdx }

// Stats returns the run's counters so far.
func (x *Stepper) Stats() Stats { return x.s.stats }

// Release returns the run's storage to the pool.
func (x *Stepper) Release() { x.s.release() }
