package asm_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/workloads"
)

// TestAssembleAllocs pins the assembler's allocation profile: operands are
// subslices of the source and every table is sized up front, so a program
// costs a few dozen allocations whatever its length. Measured over the
// seventeen workloads: at most 0.26 allocations per source line
// (strsearch, 31 over 121 lines), 0.005 on the longest (mcf, 20 over
// 4195); building each operand in a strings.Builder cost 7–12 per line.
func TestAssembleAllocs(t *testing.T) {
	const perLine = 0.5
	for _, name := range workloads.AllNames() {
		w, _ := workloads.ByName(name)
		lines := strings.Count(w.Source, "\n") + 1
		var err error
		allocs := testing.AllocsPerRun(3, func() { _, err = asm.Assemble(w.Source) })
		if err != nil {
			t.Fatal(err)
		}
		if allocs > perLine*float64(lines) {
			t.Errorf("%s: %.0f allocations over %d source lines, want at most %.1f per line", name, allocs, lines, perLine)
		}
	}
}
