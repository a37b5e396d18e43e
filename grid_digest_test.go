package speculate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/machine"
)

var gridDigestsPath = filepath.Join("testdata", "machine", "grid.sha256")

// gridDigestPolicies are the Figure 9 columns plus the dynamic
// reconvergence predictor: every spawn source the figures exercise.
var gridDigestPolicies = []string{"superscalar", "loop", "loopFT", "procFT", "hammock", "other", "postdoms", "rec_pred"}

// TestGridDigests pins every grid cell bit for bit: each workload under
// each policy of gridDigestPolicies, PolyFlowConfig, must produce a
// machine.Result whose JSON encoding (Config, Cycles, Retired, IPC and
// every Stats field) hashes to the pinned SHA-256, one
// "workload/policy digest" line per cell. Timing-model refactors that
// claim identical results are held to this file. Set
// UPDATE_GRID_DIGESTS=1 to rewrite the pins, only alongside a deliberate
// change of the simulated machine.
func TestGridDigests(t *testing.T) {
	names := speculate.AllWorkloadNames()
	type cell struct{ bench, policy string }
	var cells []cell
	for _, name := range names {
		for _, pol := range gridDigestPolicies {
			cells = append(cells, cell{name, pol})
		}
	}
	benches := make(map[string]*speculate.Bench, len(names))
	for _, name := range names {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		benches[name] = b
	}

	lines := make([]string, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				res, err := benches[c.bench].RunNamedContext(context.Background(), c.policy, machine.PolyFlowConfig())
				if err != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", c.bench, c.policy, err)
					continue
				}
				enc, err := json.Marshal(res)
				if err != nil {
					errs[i] = err
					continue
				}
				sum := sha256.Sum256(enc)
				lines[i] = fmt.Sprintf("%s/%s %s\n", c.bench, c.policy, hex.EncodeToString(sum[:]))
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(lines, "")

	if os.Getenv("UPDATE_GRID_DIGESTS") != "" {
		if err := os.MkdirAll(filepath.Dir(gridDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gridDigestsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("grid digests regenerated; re-run without UPDATE_GRID_DIGESTS")
	}
	want, err := os.ReadFile(gridDigestsPath)
	if err != nil {
		t.Fatalf("reading pins (regenerate with UPDATE_GRID_DIGESTS=1): %v", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.SplitAfter(string(want), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("cell differs from its pin:\ngot:  %swant: %s", line, wantAt(wantLines, i))
		}
	}
	if len(wantLines) != len(lines)+1 { // SplitAfter leaves a trailing ""
		t.Errorf("pin file has %d lines, grid has %d cells", len(wantLines)-1, len(lines))
	}
}

func wantAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(missing)\n"
}
