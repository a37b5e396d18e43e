// Package progen is the repository's generative verification subsystem:
// seeded, deterministic random-program generators plus an oracle layer
// that cross-checks every independent implementation pair in the tree.
//
// The two generators:
//
//   - GenCFG: arbitrary control flow graphs — structured (reducible by
//     construction), structured-with-noise-edges, and fully random
//     (typically irreducible) — for the graph analyses.
//   - GenAsm: random ISA assembly programs with guaranteed-terminating
//     loops, acyclic call graphs, and annotated jump tables, for the
//     emulator and the timing models.
//
// Each named tier (the Tiers table) runs one oracle battery over one
// generator's case for a seed. The oracle matrix (see docs/TESTING.md):
//
//	dominators:  dom.Compute (CHK iterative)  vs  dom.ComputeLT (Lengauer-Tarjan)
//	             vs dom.NaiveDominators (set dataflow), on forward and
//	             reversed graphs
//	CDG:         cdg.Build (FOW over the pdom tree)  vs  a brute-force
//	             path-enumeration reference that never looks at a tree
//	loops:       loops.Find invariants on reducible AND irreducible graphs
//	emulator:    emu.Check architectural replay of every generated trace
//	scheduler:   event-driven vs polled machine, bit-identical Results
//	attribution: per-site sums reconcile exactly with the machine counters
//	spawn mask:  codec round trip, masked scheduler pair, masked sites uncharged
//
// testdata/compiled holds a frozen corpus of compiler-generated programs
// that rides the emulator, image, analysis and graph oracles alongside
// GenAsm's output (TestCompiledCorpus).
//
// Everything is a pure function of the seed: the same seed always
// regenerates the same bytes (the generator uses its own splitmix64
// stream, not math/rand, so results are stable across Go releases).
// Every oracle failure carries the seed and a one-command reproduction
// via cmd/progen, which can also minimize the failing case.
package progen

import "fmt"

// rng is a splitmix64 generator. It is deliberately self-contained so
// generated programs are byte-identical across Go versions — corpus
// entries and failure seeds stay reproducible forever.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n). n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a uniform int in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// chance reports true with probability num/den.
func (r *rng) chance(num, den int) bool { return r.intn(den) < num }

// Failure is an oracle divergence annotated with everything needed to
// reproduce it: the tier, the generator seed, and the underlying error.
type Failure struct {
	Tier string // the Name of one entry in Tiers
	Seed uint64
	Err  error
}

// Error formats the failure with its one-command reproduction.
func (f *Failure) Error() string {
	return fmt.Sprintf("progen: tier=%s seed=%d: %v (reproduce: go run ./cmd/progen -tier %s -seed %d)",
		f.Tier, f.Seed, f.Err, f.Tier, f.Seed)
}

// Unwrap exposes the underlying oracle error.
func (f *Failure) Unwrap() error { return f.Err }

// fail wraps err (when non-nil) as a Failure for the given tier and seed.
func fail(tier string, seed uint64, err error) error {
	if err == nil {
		return nil
	}
	return &Failure{Tier: tier, Seed: seed, Err: err}
}
