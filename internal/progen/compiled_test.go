package progen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/tracestore"
)

// TestCompiledCorpus runs the frozen compiler-generated programs in
// testdata/compiled through the same battery as the isa tier: emulate,
// emu.Check, the loaded-image round trip, core.Analyze and the
// dominator/CDG/loop oracles on every function CFG. Compiled code has
// shapes GenAsm does not emit (stack frames, spilled temporaries,
// short-circuit joins), so the corpus keeps those shapes under the
// oracles. Each file's first line records main()'s return value as
// predicted by a reference interpreter when the corpus was generated;
// the emulated $v0 must equal it.
func TestCompiledCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/compiled/*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 9 {
		t.Fatalf("found %d corpus files, want 9 (seed0..seed7 and analyzable)", len(files))
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".s")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			var want int64
			if _, err := fmt.Sscanf(src, "# main() returns %d\n", &want); err != nil {
				t.Fatalf("header: %v", err)
			}
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkProgram(p, "compiled corpus "+name); err != nil {
				t.Fatal(err)
			}
			m := emu.New(p)
			for !m.Halted && m.Count < asmMaxInstrs {
				if err := m.Step(nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.Regs[isa.V0]; !m.Halted || got != want {
				t.Fatalf("main() returned %d (halted %v), recorded %d", got, m.Halted, want)
			}
			if name == "analyzable" {
				checkCompiledSpawnKinds(t, p)
			}
		})
	}
}

var compiledDigestsPath = filepath.Join("testdata", "compiled", "traces.sha256")

// TestCompiledCorpusDigests pins what each corpus program produces, not only
// main()'s return value (five of the nine record 0 or 1, which many wrong
// runs also return): one "name retired digest" line per file, giving the
// retired-instruction count and the SHA-256 of the trace's
// polyflow-trace/1 encoding, dependences included. Set
// UPDATE_TRACESTORE_GOLDEN=1 to rewrite the pins — only alongside a
// deliberate emulator or format change.
func TestCompiledCorpusDigests(t *testing.T) {
	files, err := filepath.Glob("testdata/compiled/*.s")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".s")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := emu.Run(p, emu.Config{MaxInstrs: asmMaxInstrs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := tracestore.Encode(tr, tr.ComputeDeps())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(enc)
		fmt.Fprintf(&got, "%s %d %s\n", name, tr.Len(), hex.EncodeToString(sum[:]))
	}

	if os.Getenv("UPDATE_TRACESTORE_GOLDEN") != "" {
		if err := os.WriteFile(compiledDigestsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("compiled-corpus digests regenerated; re-run without UPDATE_TRACESTORE_GOLDEN")
	}
	want, err := os.ReadFile(compiledDigestsPath)
	if err != nil {
		t.Fatalf("reading pins (regenerate with UPDATE_TRACESTORE_GOLDEN=1): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("compiled-corpus traces differ from the pins:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// checkCompiledSpawnKinds requires the spawn analysis to find every
// structure compiled control flow produces: hammocks from if/else and
// short-circuit joins, loop-iteration spawns and loop fall-throughs from
// loop latches, and procedure fall-throughs at calls.
func checkCompiledSpawnKinds(t *testing.T, p *isa.Program) {
	t.Helper()
	tr, err := emu.Run(p, emu.Config{MaxInstrs: asmMaxInstrs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, tr.IndirectTargets())
	if err != nil {
		t.Fatal(err)
	}
	kinds := a.CountByKind()
	for _, k := range []core.Kind{core.KindHammock, core.KindLoop, core.KindLoopFT, core.KindProcFT} {
		if kinds[k] == 0 {
			t.Errorf("no %v spawns in compiled code: %v", k, kinds)
		}
	}
}
