package emu_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/workloads"
)

// TestCheckOSAllocs pins the architectural check's allocation profile:
// re-executing gzip's trace steps into one reused entry, so the count is
// the machine's fixed set-up (memory image pages) and must not grow with
// trace length.
func TestCheckOSAllocs(t *testing.T) {
	w, ok := workloads.ByName("gzip")
	if !ok {
		t.Fatal("unknown workload gzip")
	}
	prog := w.Assemble()
	tr, err := emu.Run(prog, emu.Config{MaxInstrs: w.MaxInstrs, OS: w.NewOS(), Segments: w.Segments(prog)})
	if err != nil {
		t.Fatal(err)
	}
	var checkErr error
	allocs := testing.AllocsPerRun(3, func() {
		checkErr = emu.CheckOS(prog, tr, w.NewOS())
	})
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if limit := float64(len(tr.Entries)) / 100; allocs >= limit {
		t.Errorf("CheckOS allocated %.0f times over %d entries, want under %.0f (1%%)", allocs, len(tr.Entries), limit)
	}
	t.Logf("CheckOS: %.0f allocs over %d entries", allocs, len(tr.Entries))
}
