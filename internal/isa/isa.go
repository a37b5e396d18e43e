// Package isa defines the 64-bit MIPS-like instruction set simulated by this
// repository. It mirrors the "variant of the 64-bit MIPS instruction set"
// used by the paper's execution-driven simulator: 32 general-purpose
// registers, fixed 4-byte instructions, conditional branches with explicit
// targets, direct and indirect jumps, and loads/stores of 1/2/4/8 bytes.
// The ISA has no special instructions to support multithreading.
package isa

import "fmt"

// InstSize is the size of every instruction in bytes. PCs advance by
// InstSize; branch and jump targets are absolute byte addresses.
const InstSize = 4

// Reg identifies one of the 32 general-purpose registers. Register 0 is
// hardwired to zero, as in MIPS.
type Reg uint8

// NumRegs is the number of architectural general-purpose registers.
const NumRegs = 32

// Conventional register names (MIPS o64-flavored calling convention).
const (
	Zero Reg = 0 // hardwired zero
	AT   Reg = 1 // assembler temporary
	V0   Reg = 2 // return value 0
	V1   Reg = 3 // return value 1
	A0   Reg = 4 // argument 0
	A1   Reg = 5 // argument 1
	A2   Reg = 6 // argument 2
	A3   Reg = 7 // argument 3
	T0   Reg = 8 // caller-saved temporaries T0..T7
	T1   Reg = 9
	T2   Reg = 10
	T3   Reg = 11
	T4   Reg = 12
	T5   Reg = 13
	T6   Reg = 14
	T7   Reg = 15
	S0   Reg = 16 // callee-saved S0..S7
	S1   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	T8   Reg = 24
	T9   Reg = 25
	K0   Reg = 26
	K1   Reg = 27
	GP   Reg = 28 // global pointer
	SP   Reg = 29 // stack pointer
	FP   Reg = 30 // frame pointer
	RA   Reg = 31 // return address
)

var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

var regByName = func() map[string]Reg {
	m := make(map[string]Reg, NumRegs)
	for i, n := range regNames {
		m[n] = Reg(i)
	}
	return m
}()

// String returns the conventional assembly name of the register ("$t0").
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return "$" + regNames[r]
	}
	return fmt.Sprintf("$r%d", uint8(r))
}

// RegByName maps a conventional name (without the '$') to its register
// number. Numeric names "r0".."r31" are also accepted.
func RegByName(name string) (Reg, bool) {
	if r, ok := regByName[name]; ok {
		return r, true
	}
	var n int
	if _, err := fmt.Sscanf(name, "r%d", &n); err == nil && n >= 0 && n < NumRegs {
		return Reg(n), true
	}
	return 0, false
}

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode space. Grouped so classification predicates stay simple.
const (
	OpInvalid Op = iota

	// Three-register ALU operations: rd <- rs OP rt.
	OpADD
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpNOR
	OpSLT  // set-less-than (signed)
	OpSLTU // set-less-than (unsigned)
	OpSLLV // shift left logical variable
	OpSRLV // shift right logical variable
	OpSRAV // shift right arithmetic variable
	OpMUL
	OpDIV
	OpREM

	// Register-immediate ALU operations: rd <- rs OP imm.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpSLL // shift by immediate
	OpSRL
	OpSRA
	OpLUI // rd <- imm << 16
	OpLI  // rd <- imm (64-bit immediate pseudo-materialization)

	// Loads: rd <- mem[rs + imm].
	OpLB
	OpLBU
	OpLH
	OpLW
	OpLD

	// Stores: mem[rs + imm] <- rt.
	OpSB
	OpSH
	OpSW
	OpSD

	// Conditional branches. Two-register compares use rs,rt; the
	// compare-against-zero forms use rs only. Imm holds the absolute
	// target PC after assembly.
	OpBEQ
	OpBNE
	OpBLEZ
	OpBGTZ
	OpBLTZ
	OpBGEZ

	// Jumps. OpJ/OpJAL carry the absolute target in Imm. OpJR jumps to
	// the address in rs; OpJALR additionally links into rd.
	OpJ
	OpJAL
	OpJR
	OpJALR

	OpNOP
	OpHALT

	// OpSYSCALL requests an operating-system service from the emulator's
	// attached syscall handler (internal/sysos). The service number is read
	// from $v0 and the result written back to $v0; $a0/$a1 carry arguments.
	// Placed after OpHALT so the opcode-range classification predicates
	// (and the pinned trace-store encodings) of the pre-syscall opcode
	// space are untouched.
	OpSYSCALL

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpSUB: "sub", OpAND: "and", OpOR: "or",
	OpXOR: "xor", OpNOR: "nor", OpSLT: "slt", OpSLTU: "sltu",
	OpSLLV: "sllv", OpSRLV: "srlv", OpSRAV: "srav",
	OpMUL: "mul", OpDIV: "div", OpREM: "rem",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLTI: "slti", OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpLUI: "lui", OpLI: "li",
	OpLB: "lb", OpLBU: "lbu", OpLH: "lh", OpLW: "lw", OpLD: "ld",
	OpSB: "sb", OpSH: "sh", OpSW: "sw", OpSD: "sd",
	OpBEQ: "beq", OpBNE: "bne", OpBLEZ: "blez", OpBGTZ: "bgtz",
	OpBLTZ: "bltz", OpBGEZ: "bgez",
	OpJ: "j", OpJAL: "jal", OpJR: "jr", OpJALR: "jalr",
	OpNOP: "nop", OpHALT: "halt", OpSYSCALL: "syscall",
}

// String returns the assembly mnemonic of the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Inst is one decoded instruction. Branch and direct-jump targets are held
// as absolute byte addresses in Imm (the assembler resolves labels).
type Inst struct {
	Op         Op
	Rd, Rs, Rt Reg
	Imm        int64
}

// Classification predicates. These drive both the emulator and the static
// CFG construction, so they are defined once, here.

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool { return i.Op >= OpBEQ && i.Op <= OpBGEZ }

// IsDirectJump reports whether the instruction is an unconditional direct
// jump (j / jal).
func (i Inst) IsDirectJump() bool { return i.Op == OpJ || i.Op == OpJAL }

// IsIndirectJump reports whether the instruction jumps through a register
// (jr / jalr).
func (i Inst) IsIndirectJump() bool { return i.Op == OpJR || i.Op == OpJALR }

// IsCall reports whether the instruction is a procedure call (jal / jalr).
func (i Inst) IsCall() bool { return i.Op == OpJAL || i.Op == OpJALR }

// IsReturn reports whether the instruction is the conventional procedure
// return, jr $ra.
func (i Inst) IsReturn() bool { return i.Op == OpJR && i.Rs == RA }

// IsLoad reports whether the instruction reads memory.
func (i Inst) IsLoad() bool { return i.Op >= OpLB && i.Op <= OpLD }

// IsStore reports whether the instruction writes memory.
func (i Inst) IsStore() bool { return i.Op >= OpSB && i.Op <= OpSD }

// EndsBlock reports whether the instruction terminates a basic block: any
// control transfer or halt ends a block.
func (i Inst) EndsBlock() bool {
	return i.IsCondBranch() || i.IsDirectJump() || i.IsIndirectJump() || i.Op == OpHALT
}

// MemWidth returns the access size in bytes for loads and stores, 0 for
// other instructions.
func (i Inst) MemWidth() int {
	switch i.Op {
	case OpLB, OpLBU, OpSB:
		return 1
	case OpLH, OpSH:
		return 2
	case OpLW, OpSW:
		return 4
	case OpLD, OpSD:
		return 8
	}
	return 0
}

// Dst returns the destination register and whether the instruction writes
// one. Writes to $zero are reported as no destination.
func (i Inst) Dst() (Reg, bool) {
	var d Reg
	switch {
	case i.Op >= OpADD && i.Op <= OpLI:
		d = i.Rd
	case i.IsLoad():
		d = i.Rd
	case i.Op == OpJAL:
		d = RA
	case i.Op == OpJALR:
		d = i.Rd
	case i.Op == OpSYSCALL:
		d = V0 // every service writes its result (or echoes its code) to $v0
	default:
		return 0, false
	}
	if d == Zero {
		return 0, false
	}
	return d, true
}

// Srcs appends the source registers of the instruction to dst and returns
// the extended slice. Reads of $zero are omitted (always-ready constant).
func (i Inst) Srcs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != Zero {
			dst = append(dst, r)
		}
	}
	switch {
	case i.Op >= OpADD && i.Op <= OpREM: // three-register ALU
		add(i.Rs)
		add(i.Rt)
	case i.Op >= OpADDI && i.Op <= OpSRA: // reg-imm ALU
		add(i.Rs)
	case i.Op == OpLUI || i.Op == OpLI:
		// no register sources
	case i.IsLoad():
		add(i.Rs)
	case i.IsStore():
		add(i.Rs)
		add(i.Rt)
	case i.Op == OpBEQ || i.Op == OpBNE:
		add(i.Rs)
		add(i.Rt)
	case i.IsCondBranch(): // compare-against-zero forms
		add(i.Rs)
	case i.Op == OpJR || i.Op == OpJALR:
		add(i.Rs)
	case i.Op == OpSYSCALL:
		add(V0) // service number
		add(A0) // first argument
	}
	return dst
}

// String disassembles the instruction.
func (i Inst) String() string {
	switch {
	case i.Op == OpNOP || i.Op == OpHALT || i.Op == OpSYSCALL:
		return i.Op.String()
	case i.Op >= OpADD && i.Op <= OpREM:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs, i.Rt)
	case i.Op >= OpADDI && i.Op <= OpSRA:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs, i.Imm)
	case i.Op == OpLUI || i.Op == OpLI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case i.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs)
	case i.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rt, i.Imm, i.Rs)
	case i.Op == OpBEQ || i.Op == OpBNE:
		return fmt.Sprintf("%s %s, %s, 0x%x", i.Op, i.Rs, i.Rt, uint64(i.Imm))
	case i.IsCondBranch():
		return fmt.Sprintf("%s %s, 0x%x", i.Op, i.Rs, uint64(i.Imm))
	case i.IsDirectJump():
		return fmt.Sprintf("%s 0x%x", i.Op, uint64(i.Imm))
	case i.Op == OpJR:
		return fmt.Sprintf("jr %s", i.Rs)
	case i.Op == OpJALR:
		return fmt.Sprintf("jalr %s, %s", i.Rd, i.Rs)
	}
	return "invalid"
}
