package progen

import "testing"

// The fuzz targets feed native Go fuzzing's mutated uint64s in as
// generator seeds, so coverage feedback steers the *generator* through
// its decision tree rather than mutating program bytes directly (which
// would mostly produce parse errors). Checked-in corpora under
// testdata/fuzz/ keep a spread of seeds per tier exercising every
// generator shape; see docs/TESTING.md for how to run and extend them.

// FuzzDominators cross-checks the iterative, Lengauer-Tarjan and naive
// dominator/postdominator implementations on generated CFGs.
func FuzzDominators(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := fail("cfg", seed, CheckDominators(GenCFG(seed))); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCDG cross-checks the postdominator-tree CDG construction against
// the path-enumeration reference, and the loop forest invariants.
func FuzzCDG(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := GenCFG(seed)
		if err := CheckCDG(c); err != nil {
			t.Fatal(fail("cfg", seed, err))
		}
		if err := VerifyLoops(c.Succs, c.Entry); err != nil {
			t.Fatal(fail("cfg", seed, err))
		}
	})
}

// FuzzMachineDifferential runs generated ISA programs through the
// event-driven and polled schedulers under stress configurations and
// requires bit-identical results.
func FuzzMachineDifferential(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := CheckMachineSeed(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzAttribution runs generated ISA programs with a spawn-site
// attribution table attached and requires the per-site sums to reconcile
// exactly with the machine-wide counters, with and without a warmup
// prefix.
func FuzzAttribution(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := CheckAttributionSeed(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSpawnMask draws a random spawn mask over each generated program's
// analyzed site universe and requires the mask codec to round-trip
// canonically, both schedulers to agree bit-for-bit under the mask,
// attribution to reconcile exactly with masked sites charging nothing,
// and the empty mask to be a no-op.
func FuzzSpawnMask(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := CheckSpawnMaskSeed(seed); err != nil {
			t.Fatal(err)
		}
	})
}
