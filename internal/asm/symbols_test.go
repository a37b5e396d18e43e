package asm_test

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/workloads"
)

// TestSharedAddressSymbolIsStable assembles sources where two labels land
// on one instruction many times in one process: every assembly must name
// the address the same way, whatever order the label map yields.
func TestSharedAddressSymbolIsStable(t *testing.T) {
	bzip2, _ := workloads.ByName("bzip2")
	cases := []struct {
		name, src string
		shared    []string // labels on one instruction
		want      string
	}{
		// Plain labels only: the name that sorts first wins.
		{"plain", "start: nop\nzeta:\nalpha:\nmid:   nop\n       halt\n", []string{"zeta", "alpha", "mid"}, "alpha"},
		// A .func beats a plain label that sorts before it.
		{"func", "       nop\nalpha:\n       .func zeta\nzeta:  halt\n", []string{"alpha", "zeta"}, "zeta"},
		{"bzip2", bzip2.Source, []string{"rle_next", "mtf_done"}, "mtf_done"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := asm.MustAssemble(tc.src)
			addr := first.Labels[tc.want]
			for _, l := range tc.shared {
				if first.Labels[l] != addr {
					t.Fatalf("label %s at 0x%x, want the shared 0x%x", l, first.Labels[l], addr)
				}
			}
			if got := first.Symbols[addr]; got != tc.want {
				t.Fatalf("symbol at 0x%x = %q, want %q", addr, got, tc.want)
			}
			for i := 0; i < 100; i++ {
				if p := asm.MustAssemble(tc.src); !reflect.DeepEqual(p.Symbols, first.Symbols) {
					t.Fatalf("assembly %d names the code differently:\n%v\nvs\n%v", i, p.Symbols, first.Symbols)
				}
			}
		})
	}
}
