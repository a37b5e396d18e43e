package emu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestDivRemTotal: the ISA's division is total — x/0 = x%0 = 0 and the
// MinInt64/-1 overflow wraps instead of trapping (a raw Go division here
// would panic the emulator; found by generative testing).
func TestDivRemTotal(t *testing.T) {
	cases := []struct {
		name     string
		op       string
		rs, rt   int64
		expected int64
	}{
		{"div-by-zero", "div", 7, 0, 0},
		{"rem-by-zero", "rem", 7, 0, 0},
		{"div-overflow", "div", math.MinInt64, -1, math.MinInt64},
		{"rem-overflow", "rem", math.MinInt64, -1, 0},
		{"div-neg-one", "div", 40, -1, -40},
		{"rem-neg-one", "rem", 41, -1, 0},
		{"div-plain", "div", -40, 8, -5},
		{"rem-plain", "rem", -41, 8, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := asm.Assemble(fmt.Sprintf(`
        li   $t0, %d
        li   $t1, %d
        %s  $v0, $t0, $t1
        halt
`, c.rs, c.rt, c.op))
			if err != nil {
				t.Fatal(err)
			}
			m := New(p)
			for !m.Halted {
				if err := m.Step(nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.Regs[isa.V0]; got != c.expected {
				t.Fatalf("%s(%d, %d) = %d, want %d", c.op, c.rs, c.rt, got, c.expected)
			}
		})
	}
}
