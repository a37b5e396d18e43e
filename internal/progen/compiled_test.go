package progen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
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
