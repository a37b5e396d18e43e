package progen

import (
	"runtime"
	"sync"
	"testing"
)

// sweep fans seeds [base, base+count) across workers and reports every
// oracle failure.
func sweep(t *testing.T, name string, base uint64, count int, check func(uint64) error) {
	t.Helper()
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	next := make(chan uint64, count)
	for s := base; s < base+uint64(count); s++ {
		next <- s
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				if err := check(s); err != nil {
					mu.Lock()
					if len(errs) < 5 {
						errs = append(errs, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Errorf("%s: %v", name, err)
	}
}

// TestOracleSweep cross-checks every oracle pair over ~900 generated
// programs. It runs in full even under -short: this is the repository's
// primary generative regression gate (see docs/TESTING.md).
func TestOracleSweep(t *testing.T) {
	sweep(t, "cfg", 0, 700, CheckCFGSeed)
	sweep(t, "isa", 0, 120, CheckAsmSeed)
	sweep(t, "machine", 0, 60, CheckMachineSeed)
	sweep(t, "attrib", 5_000, 24, CheckAttributionSeed)
}

// TestOracleSweepFull is the long-running version over a fresh, larger
// seed range; skipped under -short (the repository's slow-test
// convention).
func TestOracleSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle sweep skipped in -short mode")
	}
	sweep(t, "cfg", 10_000, 4000, CheckCFGSeed)
	sweep(t, "isa", 10_000, 500, CheckAsmSeed)
	sweep(t, "machine", 10_000, 150, CheckMachineSeed)
	sweep(t, "attrib", 50_000, 100, CheckAttributionSeed)
}
