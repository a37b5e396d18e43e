package emu

import (
	"fmt"
	"strings"
)

// Segment is one mapped region of the emulated address space. Kernels-family
// programs (internal/sysos) attach a segment map so stray accesses fault
// with context instead of silently reading zeroes from the sparse memory.
type Segment struct {
	Name string // "data", "heap", "stack", ...
	Base uint64 // first mapped address
	Size uint64 // bytes mapped; [Base, Base+Size)
}

// Contains reports whether the width-byte access at addr lies fully inside
// the segment.
func (s Segment) Contains(addr uint64, width int) bool {
	return addr >= s.Base && addr+uint64(width) <= s.Base+s.Size
}

func (s Segment) String() string {
	return fmt.Sprintf("%s [0x%x,0x%x)", s.Name, s.Base, s.Base+s.Size)
}

// describeSegments renders the segment map for fault messages.
func describeSegments(segs []Segment) string {
	parts := make([]string, len(segs))
	for i, s := range segs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ", ")
}

// checkAccess validates a data access against the machine's segment map.
// A nil map means an unrestricted address space (the synthetic workloads
// lay out their own memory and are not segment-checked). The error carries
// the faulting PC (with its symbol), the effective address, the access
// kind/width, and the mapped segments — the context a segment-mapped
// program needs to debug a stray pointer.
func (m *Machine) checkAccess(pc, addr uint64, width int, kind string) error {
	if m.Segs == nil {
		return nil
	}
	for _, s := range m.Segs {
		if s.Contains(addr, width) {
			return nil
		}
	}
	return fmt.Errorf("emu: PC 0x%x (%s): %s of %d bytes at 0x%x outside mapped segments: %s",
		pc, m.Prog.SymbolFor(pc), kind, width, addr, describeSegments(m.Segs))
}
