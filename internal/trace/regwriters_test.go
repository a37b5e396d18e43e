package trace_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// naiveProducers is the reference RegWriters is held to: a forward scan
// that remembers each register's last writer in a map, -1 for a source no
// entry wrote and beyond NSrc.
func naiveProducers(entries []trace.Entry) [][2]int32 {
	last := map[uint8]int32{}
	out := make([][2]int32, len(entries))
	for i, e := range entries {
		out[i] = [2]int32{-1, -1}
		for k := 0; k < int(e.NSrc); k++ {
			if p, ok := last[uint8(e.Srcs[k])]; ok {
				out[i][k] = p
			}
		}
		if e.Flags&trace.FlagHasDst != 0 {
			last[uint8(e.Dst)] = int32(i)
		}
	}
	return out
}

// checkRegWriters walks tr with one RegWriters table and compares every
// entry's producers with the naive scan's.
func checkRegWriters(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	if tr.Len() == 0 {
		t.Fatalf("%s: empty trace", name)
	}
	want := naiveProducers(tr.Entries)
	w := trace.NewRegWriters()
	for i := range tr.Entries {
		if got := w.Next(i, &tr.Entries[i]); got != want[i] {
			t.Fatalf("%s: entry %d: RegWriters gives producers %v, the naive scan %v", name, i, got, want[i])
		}
	}
}

// TestRegWritersMatchNaiveScan holds the one register last-writer rule to
// the naive scan on every registered workload's trace and on the compiled
// corpus (internal/progen/testdata/compiled), whose stack frames and
// spilled temporaries give register reuse patterns the workloads lack.
func TestRegWritersMatchNaiveScan(t *testing.T) {
	all := append(workloads.All(), workloads.Kernels()...)
	if len(all) != 17 {
		t.Fatalf("%d registered workloads, want 17", len(all))
	}
	for _, w := range all {
		p := w.Assemble()
		tr, err := emu.Run(p, emu.Config{MaxInstrs: w.MaxInstrs, OS: w.NewOS(), Segments: w.Segments(p)})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkRegWriters(t, w.Name, tr)
	}

	files, err := filepath.Glob(filepath.Join("..", "progen", "testdata", "compiled", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 9 {
		t.Fatalf("found %d compiled-corpus files, want 9", len(files))
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		tr, err := emu.Run(p, emu.Config{MaxInstrs: 400_000})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkRegWriters(t, filepath.Base(path), tr)
	}
}
