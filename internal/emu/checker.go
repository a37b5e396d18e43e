package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Check re-executes the program architecturally and verifies that the
// given retired trace matches it instruction by instruction — the
// mechanism the paper's simulator uses ("when an instruction is retired,
// its results are compared against an architectural simulator, and an
// error is signaled if the results do not match"). Because the timing
// models are trace-driven, running Check over a trace before simulation
// guarantees the machine only ever retires architecturally correct state.
func Check(p *isa.Program, tr *trace.Trace) error {
	return CheckOS(p, tr, nil)
}

// CheckOS is Check for programs that execute syscalls: os services the
// replay's syscall instructions. The handler must be fresh (or reset) and
// configured identically to the one that produced the trace — determinism
// of the OS layer is what makes the replay reproduce the recorded stream.
// A nil os degrades to plain Check.
func CheckOS(p *isa.Program, tr *trace.Trace, os SyscallHandler) error {
	m := New(p)
	m.OS = os
	// One reused entry: the re-execution allocates nothing per instruction.
	var got trace.Entry
	for i := range tr.Entries {
		if m.Halted {
			return fmt.Errorf("emu: check: trace has %d entries but execution halted at %d", len(tr.Entries), i)
		}
		if err := m.step(&got); err != nil {
			return fmt.Errorf("emu: check: at entry %d: %w", i, err)
		}
		if want := &tr.Entries[i]; got != *want {
			return fmt.Errorf("emu: check: divergence at entry %d: trace %+v, architectural %+v", i, *want, got)
		}
	}
	if len(tr.Entries) > 0 && tr.End != m.PC {
		return fmt.Errorf("emu: check: trace ends at PC %#x, architectural %#x", tr.End, m.PC)
	}
	// Every provided entry matched; a trace produced under an instruction
	// cap is a verified prefix of the architectural execution.
	return nil
}

// CheckLabeled is Check with a caller-supplied label prefixed to any
// divergence. Generative tests pass their "seed=N" label so every checker
// failure carries its one-command reproduction handle.
func CheckLabeled(p *isa.Program, tr *trace.Trace, label string) error {
	if err := Check(p, tr); err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return nil
}
