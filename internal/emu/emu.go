// Package emu implements the functional (architectural) emulator for the
// repository's MIPS-like ISA. It plays the role of the paper's architectural
// simulator: it defines correct execution, and its retired instruction
// stream is the dynamic trace that drives the timing models and trains the
// dynamic reconvergence predictor.
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Config controls one emulation run.
type Config struct {
	// MaxInstrs caps the number of retired instructions (0 means the
	// DefaultMaxInstrs safety cap). The paper runs 100M instructions per
	// benchmark; the workloads here are sized to finish under the cap.
	MaxInstrs int
	// OS handles syscall instructions. Nil makes OpSYSCALL an
	// architectural fault — the synthetic workloads never execute one.
	OS SyscallHandler
	// Segments, when non-nil, restricts data accesses to the mapped
	// regions; out-of-bounds loads and stores fault with the PC, effective
	// address, and segment map in the error. Nil leaves the sparse address
	// space unrestricted.
	Segments []Segment
}

// SyscallHandler services OpSYSCALL instructions. The handler reads the
// service number from $v0 and arguments from $a0/$a1 (and program memory),
// and returns the value the emulator writes back to $v0. It may halt the
// machine (exit). To keep runs byte-reproducible and cacheable, a handler
// must be deterministic: internal/sysos implements one over preloaded
// stdin and captured output.
type SyscallHandler interface {
	Syscall(m *Machine) (int64, error)
}

// DefaultMaxInstrs is the safety cap on retired instructions.
const DefaultMaxInstrs = 4_000_000

// Machine is the architectural state of one emulated program.
type Machine struct {
	Prog   *isa.Program
	Regs   [isa.NumRegs]int64
	Mem    *Memory
	PC     uint64 // the next instruction; a halted machine stays at its halting one
	Halted bool
	Count  int64 // retired instructions
	// OS services syscall instructions; nil faults on OpSYSCALL.
	OS SyscallHandler
	// Segs, when non-nil, bounds-checks every data access (see Config.Segments).
	Segs []Segment

	// static holds, per code-segment instruction, the trace entry fields
	// that depend only on the instruction (opcode, destination, register
	// sources); step starts each entry from it.
	static []trace.Entry
}

// New creates a machine with the program image loaded and the ABI state
// (entry PC, stack pointer at isa.DefaultStackTop, return address)
// initialized. The return address is set to a halt-trampoline so that a
// bare `ret` from main halts cleanly.
func New(p *isa.Program) *Machine {
	m := &Machine{Prog: p, Mem: NewMemory(), PC: p.Entry, static: staticEntries(p)}
	m.Mem.LoadImage(p.DataBase, p.Data)
	m.Regs[isa.SP] = int64(isa.DefaultStackTop)
	m.Regs[isa.GP] = int64(p.DataBase)
	return m
}

// staticEntries builds Machine.static for p's code segment.
func staticEntries(p *isa.Program) []trace.Entry {
	out := make([]trace.Entry, len(p.Code))
	for i, inst := range p.Code {
		e := &out[i]
		e.Op = inst.Op
		if d, ok := inst.Dst(); ok {
			e.Dst = d
			e.Flags = trace.FlagHasDst
		}
		var srcs [4]isa.Reg
		ss := inst.Srcs(srcs[:0])
		// The ISA has at most two register sources.
		for k, r := range ss {
			if k < 2 {
				e.Srcs[k] = r
			}
		}
		e.NSrc = uint8(len(ss))
	}
	return out
}

// Step executes one instruction and appends its trace entry to tr (when tr
// is non-nil), setting tr.End to the PC after it. It returns an error on
// architectural faults: executing outside the code segment or unknown
// opcodes.
func (m *Machine) Step(tr *trace.Trace) error {
	if tr == nil || m.Halted {
		return m.step(nil)
	}
	var e trace.Entry
	if err := m.step(&e); err != nil {
		return err
	}
	tr.Entries = append(tr.Entries, e)
	tr.End = m.PC
	return nil
}

// step executes one instruction and, when out is non-nil, overwrites *out
// with its trace entry. A halted machine does nothing and leaves *out
// untouched. It is the one interpreter behind Step, Run and CheckOS.
func (m *Machine) step(out *trace.Entry) error {
	if m.Halted {
		return nil
	}
	idx := m.Prog.IndexOf(m.PC)
	if idx < 0 {
		return fmt.Errorf("emu: PC 0x%x outside code segment [0x%x,0x%x) after %d instructions",
			m.PC, m.Prog.CodeBase, m.Prog.CodeBase+uint64(len(m.Prog.Code))*isa.InstSize, m.Count)
	}
	inst := &m.Prog.Code[idx]
	pc := m.PC
	next := pc + isa.InstSize
	e := m.static[idx]
	e.PC = pc

	rs, rt := m.Regs[inst.Rs], m.Regs[inst.Rt]
	var result int64
	writeDst := false

	switch inst.Op {
	case isa.OpNOP:
	case isa.OpHALT:
		m.Halted = true
	case isa.OpADD:
		result, writeDst = rs+rt, true
	case isa.OpSUB:
		result, writeDst = rs-rt, true
	case isa.OpAND:
		result, writeDst = rs&rt, true
	case isa.OpOR:
		result, writeDst = rs|rt, true
	case isa.OpXOR:
		result, writeDst = rs^rt, true
	case isa.OpNOR:
		result, writeDst = ^(rs | rt), true
	case isa.OpSLT:
		result, writeDst = b2i(rs < rt), true
	case isa.OpSLTU:
		result, writeDst = b2i(uint64(rs) < uint64(rt)), true
	case isa.OpSLLV:
		result, writeDst = rs<<(uint64(rt)&63), true
	case isa.OpSRLV:
		result, writeDst = int64(uint64(rs)>>(uint64(rt)&63)), true
	case isa.OpSRAV:
		result, writeDst = rs>>(uint64(rt)&63), true
	case isa.OpMUL:
		result, writeDst = rs*rt, true
	case isa.OpDIV:
		switch rt {
		case 0:
			result = 0
		case -1:
			// MinInt64 / -1 overflows; the ISA wraps (and Go would panic).
			result = -rs
		default:
			result = rs / rt
		}
		writeDst = true
	case isa.OpREM:
		switch rt {
		case 0, -1: // x % -1 is 0 for every x, incl. the Go-panicking MinInt64
			result = 0
		default:
			result = rs % rt
		}
		writeDst = true
	case isa.OpADDI:
		result, writeDst = rs+inst.Imm, true
	case isa.OpANDI:
		result, writeDst = rs&inst.Imm, true
	case isa.OpORI:
		result, writeDst = rs|inst.Imm, true
	case isa.OpXORI:
		result, writeDst = rs^inst.Imm, true
	case isa.OpSLTI:
		result, writeDst = b2i(rs < inst.Imm), true
	case isa.OpSLL:
		result, writeDst = rs<<(uint64(inst.Imm)&63), true
	case isa.OpSRL:
		result, writeDst = int64(uint64(rs)>>(uint64(inst.Imm)&63)), true
	case isa.OpSRA:
		result, writeDst = rs>>(uint64(inst.Imm)&63), true
	case isa.OpLUI:
		result, writeDst = inst.Imm<<16, true
	case isa.OpLI:
		result, writeDst = inst.Imm, true

	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLW, isa.OpLD:
		addr := uint64(rs + inst.Imm)
		w := inst.MemWidth()
		if err := m.checkAccess(pc, addr, w, "load"); err != nil {
			return err
		}
		v := m.Mem.Read(addr, w)
		switch inst.Op {
		case isa.OpLB:
			result = int64(int8(v))
		case isa.OpLBU:
			result = int64(v)
		case isa.OpLH:
			result = int64(int16(v))
		case isa.OpLW:
			result = int64(int32(v))
		case isa.OpLD:
			result = int64(v)
		}
		writeDst = true
		e.Addr, e.MemW = addr, uint8(w)
		e.Flags |= trace.FlagLoad

	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		addr := uint64(rs + inst.Imm)
		w := inst.MemWidth()
		if err := m.checkAccess(pc, addr, w, "store"); err != nil {
			return err
		}
		m.Mem.Write(addr, w, uint64(rt))
		e.Addr, e.MemW = addr, uint8(w)
		e.Flags |= trace.FlagStore

	case isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ, isa.OpBLTZ, isa.OpBGEZ:
		taken := false
		switch inst.Op {
		case isa.OpBEQ:
			taken = rs == rt
		case isa.OpBNE:
			taken = rs != rt
		case isa.OpBLEZ:
			taken = rs <= 0
		case isa.OpBGTZ:
			taken = rs > 0
		case isa.OpBLTZ:
			taken = rs < 0
		case isa.OpBGEZ:
			taken = rs >= 0
		}
		e.Flags |= trace.FlagCondBranch
		if taken {
			e.Flags |= trace.FlagTaken
			next = uint64(inst.Imm)
		}

	case isa.OpJ:
		next = uint64(inst.Imm)
	case isa.OpJAL:
		m.Regs[isa.RA] = int64(next)
		next = uint64(inst.Imm)
		e.Flags |= trace.FlagCall
	case isa.OpJR:
		next = uint64(rs)
		e.Flags |= trace.FlagIndirect
		if inst.IsReturn() {
			e.Flags |= trace.FlagReturn
		}
	case isa.OpJALR:
		link := int64(next)
		next = uint64(rs)
		if inst.Rd != isa.Zero {
			m.Regs[inst.Rd] = link
		}
		e.Flags |= trace.FlagCall | trace.FlagIndirect

	case isa.OpSYSCALL:
		if m.OS == nil {
			return fmt.Errorf("emu: syscall %d at PC 0x%x (%s) with no OS attached",
				m.Regs[isa.V0], pc, m.Prog.SymbolFor(pc))
		}
		v, err := m.OS.Syscall(m)
		if err != nil {
			return fmt.Errorf("emu: PC 0x%x (%s): %w", pc, m.Prog.SymbolFor(pc), err)
		}
		m.Regs[isa.V0] = v

	default:
		return fmt.Errorf("emu: invalid opcode %v at PC 0x%x", inst.Op, pc)
	}

	if writeDst && inst.Rd != isa.Zero {
		m.Regs[inst.Rd] = result
	}

	if out != nil {
		*out = e
	}
	if m.Halted {
		next = pc // a halted machine stays at its halting instruction
	}
	m.PC = next
	m.Count++
	return nil
}

// Run executes the program to completion (halt) or to the instruction cap
// and returns the retired trace, its End set on every path, the error path
// included. Each step writes its entry straight into the current recording
// chunk, and the chunks are copied once, at the end, into an exactly sized
// slice. (Recycling chunks between runs would halve the fresh memory a run
// touches, but a pool keeps idle chunks reachable through a collection, so
// the live heap and peak RSS grow by them.)
func Run(p *isa.Program, cfg Config) (*trace.Trace, error) {
	max := cfg.MaxInstrs
	if max <= 0 {
		max = DefaultMaxInstrs
	}
	m := New(p)
	m.OS = cfg.OS
	m.Segs = cfg.Segments
	var log entryLog
	for !m.Halted && m.Count < int64(max) {
		if err := m.step(log.next()); err != nil {
			log.drop() // the failed step wrote no entry and left m.PC at it
			return log.trace(m.PC), err
		}
	}
	tr := log.trace(m.PC)
	if !m.Halted {
		return tr, fmt.Errorf("emu: instruction cap %d reached without halt (PC 0x%x)", max, m.PC)
	}
	return tr, nil
}

// logChunk is the entry count of one entryLog chunk (768 KiB of entries).
const logChunk = 1 << 15

// entryLog records a run's entries in fixed-size chunks, so recording
// never copies a grown slice; trace copies them once into an exactly sized
// slice, so the returned trace carries no spare capacity either.
type entryLog struct {
	full [][]trace.Entry
	cur  []trace.Entry
}

// next returns the slot for the next entry, which the caller overwrites
// in full.
func (l *entryLog) next() *trace.Entry {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = make([]trace.Entry, 0, logChunk)
	}
	l.cur = l.cur[:len(l.cur)+1]
	return &l.cur[len(l.cur)-1]
}

// drop forgets the entry next last returned.
func (l *entryLog) drop() { l.cur = l.cur[:len(l.cur)-1] }

// trace assembles the recorded entries into a trace ending at end.
func (l *entryLog) trace(end uint64) *trace.Trace {
	n := len(l.cur)
	for _, c := range l.full {
		n += len(c)
	}
	entries := make([]trace.Entry, 0, n)
	for _, c := range l.full {
		entries = append(entries, c...)
	}
	return &trace.Trace{Entries: append(entries, l.cur...), End: end}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
