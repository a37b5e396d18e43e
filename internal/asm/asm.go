// Package asm implements a two-pass assembler for the repository's MIPS-like
// ISA. It is how the synthetic workloads are written: a small textual
// assembly language with labels, functions, data directives, and the
// jump-table annotations that stand in for the compiler-generated indirect
// jump target information the paper's binaries carry.
//
// Syntax overview:
//
//	# comment
//	        .text                  # switch to code segment (default)
//	        .func main             # start a function named main (defines label)
//	        li   $t0, 100
//	loop:   addi $t0, $t0, -1
//	        bgtz $t0, loop
//	        halt
//
//	        .data
//	table:  .word8 f1, f2          # 8-byte cells; labels resolve to addresses
//	vals:   .word 1, 2, 3          # .word is the native 8-byte cell
//	msg:    .asciiz "done\n"       # NUL-terminated string, Go-style escapes
//	buf:    .space 4096            # zeroed bytes
//
// Indirect jumps may be annotated with their possible targets:
//
//	jr $t0
//	.targets case0, case1, case2
//
// Pseudo-instructions: li, la, move, neg, not, b, call, ret, and the
// synthesized comparisons blt/bge/ble/bgt (which expand to slt + branch
// through $at).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// item is one parsed source statement retained between passes.
type item struct {
	line    int
	mnem    string
	args    []string
	sec     section
	codeLen int    // instructions emitted (text section)
	dataLen int    // bytes emitted (data section)
	codePos int    // index of first emitted instruction
	dataPos int    // offset of first emitted byte
	bytes   []byte // decoded payload (.asciiz), produced during layout
}

type assembler struct {
	prog    *isa.Program
	items   []item
	labels  map[string]uint64
	funcSet map[string]bool
	lastJR  int // code index of most recent jr/jalr, for .targets
}

// Assemble parses and assembles the given source text into a linked
// Program image.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{
		prog: &isa.Program{
			CodeBase:    isa.DefaultCodeBase,
			DataBase:    isa.DefaultDataBase,
			Labels:      map[string]uint64{},
			Symbols:     map[uint64]string{},
			JumpTargets: map[uint64][]uint64{},
		},
		labels:  map[string]uint64{},
		funcSet: map[string]bool{},
		lastJR:  -1,
	}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	if err := a.emit(); err != nil {
		return nil, err
	}
	a.prog.Labels = a.labels
	if entry, ok := a.labels["main"]; ok {
		a.prog.Entry = entry
	} else {
		a.prog.Entry = a.prog.CodeBase
	}
	return a.prog, nil
}

// MustAssemble is Assemble but panics on error. The built-in workloads use
// it: an unassemblable workload is a programming error in this repository.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// parse splits the source into labeled statements.
func (a *assembler) parse(src string) error {
	sec := secText
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			// Anything before the first ':' that looks like an identifier
			// is a label; register/memory operands never precede ':'.
			lbl := strings.TrimSpace(line[:i])
			if !isIdent(lbl) {
				break
			}
			a.items = append(a.items, item{line: lineNo + 1, mnem: "<label>", args: []string{lbl}, sec: sec})
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		fields := splitOperands(line)
		mnem := strings.ToLower(fields[0])
		if mnem == ".text" {
			sec = secText
			continue
		}
		if mnem == ".data" {
			sec = secData
			continue
		}
		a.items = append(a.items, item{line: lineNo + 1, mnem: mnem, args: fields[1:], sec: sec})
	}
	return nil
}

// isIdent reports whether s is a plausible label identifier.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// stripComment removes a '#' comment, ignoring '#' inside string literals
// (".asciiz \"#1\"" keeps its hash).
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case inStr && c == '\\':
			i++ // skip the escaped byte
		case c == '"':
			inStr = !inStr
		case c == '#' && !inStr:
			return line[:i]
		}
	}
	return line
}

// splitOperands splits "op a, b, c" into ["op","a","b","c"], keeping memory
// operands like "8($sp)" and quoted strings (commas included) intact.
func splitOperands(line string) []string {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return []string{line}
	}
	out := []string{line[:i]}
	rest := line[i+1:]
	var cur strings.Builder
	flush := func() {
		if f := strings.TrimSpace(cur.String()); f != "" {
			out = append(out, f)
		}
		cur.Reset()
	}
	inStr := false
	for j := 0; j < len(rest); j++ {
		c := rest[j]
		switch {
		case inStr:
			cur.WriteByte(c)
			if c == '\\' && j+1 < len(rest) {
				j++
				cur.WriteByte(rest[j])
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
			cur.WriteByte(c)
		case c == ',':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

// instCount returns how many instructions a mnemonic expands to.
func instCount(mnem string) int {
	switch mnem {
	case "blt", "bge", "ble", "bgt", "bltu", "bgeu":
		return 2
	}
	return 1
}

// layout is pass one: assign addresses to every statement and label.
func (a *assembler) layout() error {
	codePos, dataPos := 0, 0
	for k := range a.items {
		it := &a.items[k]
		it.codePos, it.dataPos = codePos, dataPos
		switch it.mnem {
		case "<label>":
			name := it.args[0]
			addr := a.prog.DataBase + uint64(dataPos)
			if it.sec == secText {
				addr = a.prog.CodeBase + uint64(codePos)*isa.InstSize
			}
			if old, dup := a.labels[name]; dup {
				// ".func f" followed by "f:" is fine; a genuinely
				// different address is not.
				if old != addr {
					return a.errf(it.line, "duplicate label %q", name)
				}
				continue
			}
			a.labels[name] = addr
		case ".func":
			if len(it.args) != 1 {
				return a.errf(it.line, ".func wants one name")
			}
			if it.sec != secText {
				return a.errf(it.line, ".func outside .text")
			}
			name := it.args[0]
			if _, dup := a.labels[name]; dup {
				return a.errf(it.line, "duplicate label %q", name)
			}
			pc := a.prog.CodeBase + uint64(codePos)*isa.InstSize
			a.labels[name] = pc
			a.funcSet[name] = true
			a.prog.Funcs = append(a.prog.Funcs, pc)
		case ".targets":
			// no space
		case ".space":
			n, err := strconv.Atoi(strings.TrimSpace(it.args[0]))
			if err != nil || n < 0 {
				return a.errf(it.line, "bad .space size")
			}
			it.dataLen = n
			dataPos += n
		case ".word8", ".word": // .word is the native 8-byte cell
			it.dataLen = 8 * len(it.args)
			dataPos += it.dataLen
		case ".asciiz":
			if len(it.args) == 0 {
				return a.errf(it.line, ".asciiz wants at least one string")
			}
			for _, arg := range it.args {
				s, err := strconv.Unquote(arg)
				if err != nil {
					return a.errf(it.line, "bad string literal %s", arg)
				}
				it.bytes = append(it.bytes, s...)
				it.bytes = append(it.bytes, 0) // NUL terminator
			}
			it.dataLen = len(it.bytes)
			dataPos += it.dataLen
		case ".word4":
			it.dataLen = 4 * len(it.args)
			dataPos += it.dataLen
		case ".byte":
			it.dataLen = len(it.args)
			dataPos += it.dataLen
		default:
			if strings.HasPrefix(it.mnem, ".") {
				return a.errf(it.line, "unknown directive %s", it.mnem)
			}
			if it.sec != secText {
				return a.errf(it.line, "instruction in .data section")
			}
			it.codeLen = instCount(it.mnem)
			codePos += it.codeLen
		}
	}
	return nil
}

// emit is pass two: resolve operands and produce the final image.
func (a *assembler) emit() error {
	var code []isa.Inst
	var data []byte
	for k := range a.items {
		it := &a.items[k]
		switch it.mnem {
		case "<label>", ".func":
			// handled in layout
		case ".space":
			data = append(data, make([]byte, it.dataLen)...)
		case ".asciiz":
			data = append(data, it.bytes...)
		case ".word8", ".word", ".word4", ".byte":
			width := map[string]int{".word8": 8, ".word": 8, ".word4": 4, ".byte": 1}[it.mnem]
			for _, arg := range it.args {
				v, err := a.value(it, arg)
				if err != nil {
					return err
				}
				if err := a.checkWidth(it, v, width); err != nil {
					return err
				}
				for b := 0; b < width; b++ {
					data = append(data, byte(uint64(v)>>(8*b)))
				}
			}
		case ".targets":
			if a.lastJR < 0 {
				return a.errf(it.line, ".targets without preceding jr/jalr")
			}
			pc := a.prog.CodeBase + uint64(a.lastJR)*isa.InstSize
			for _, arg := range it.args {
				v, err := a.value(it, arg)
				if err != nil {
					return err
				}
				a.prog.JumpTargets[pc] = append(a.prog.JumpTargets[pc], uint64(v))
			}
		default:
			insts, err := a.encode(it)
			if err != nil {
				return err
			}
			for _, in := range insts {
				if in.Op == isa.OpJR || in.Op == isa.OpJALR {
					a.lastJR = len(code)
				}
				code = append(code, in)
			}
		}
	}
	a.prog.Code = code
	a.prog.Data = data
	for name, addr := range a.labels {
		if addr >= a.prog.CodeBase && addr < a.prog.CodeBase+uint64(len(code))*isa.InstSize {
			// Prefer function names over plain labels when both land on
			// the same address.
			if old, ok := a.prog.Symbols[addr]; !ok || !a.funcSet[old] {
				a.prog.Symbols[addr] = name
			}
		}
	}
	return nil
}

// checkWidth rejects data-cell values that do not fit the directive's
// width (signed or unsigned interpretations both accepted).
func (a *assembler) checkWidth(it *item, v int64, width int) error {
	if width >= 8 {
		return nil
	}
	lo := int64(-1) << (8*width - 1) // e.g. -128 for .byte
	hi := int64(1)<<(8*width) - 1    // e.g. 255 for .byte
	if v < lo || v > hi {
		return a.errf(it.line, "%s value %d out of range %d..%d", it.mnem, v, lo, hi)
	}
	return nil
}

// value resolves an integer literal or label reference.
func (a *assembler) value(it *item, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	if addr, ok := a.labels[s]; ok {
		return int64(addr), nil
	}
	return 0, a.errf(it.line, "undefined symbol %q", s)
}

func (a *assembler) reg(it *item, s string) (isa.Reg, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "$") {
		return 0, a.errf(it.line, "expected register, got %q", s)
	}
	r, ok := isa.RegByName(s[1:])
	if !ok {
		return 0, a.errf(it.line, "unknown register %q", s)
	}
	return r, nil
}

// memOperand parses "off($reg)" or "label($reg)".
func (a *assembler) memOperand(it *item, s string) (int64, isa.Reg, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf(it.line, "expected mem operand off($reg), got %q", s)
	}
	off := int64(0)
	if open > 0 {
		v, err := a.value(it, s[:open])
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := a.reg(it, s[open+1:len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return off, r, nil
}

var aluRegOps = map[string]isa.Op{
	"add": isa.OpADD, "sub": isa.OpSUB, "and": isa.OpAND, "or": isa.OpOR,
	"xor": isa.OpXOR, "nor": isa.OpNOR, "slt": isa.OpSLT, "sltu": isa.OpSLTU,
	"sllv": isa.OpSLLV, "srlv": isa.OpSRLV, "srav": isa.OpSRAV,
	"mul": isa.OpMUL, "div": isa.OpDIV, "rem": isa.OpREM,
}

var aluImmOps = map[string]isa.Op{
	"addi": isa.OpADDI, "andi": isa.OpANDI, "ori": isa.OpORI,
	"xori": isa.OpXORI, "slti": isa.OpSLTI,
	"sll": isa.OpSLL, "srl": isa.OpSRL, "sra": isa.OpSRA,
}

var loadOps = map[string]isa.Op{
	"lb": isa.OpLB, "lbu": isa.OpLBU, "lh": isa.OpLH, "lw": isa.OpLW, "ld": isa.OpLD,
}

var storeOps = map[string]isa.Op{
	"sb": isa.OpSB, "sh": isa.OpSH, "sw": isa.OpSW, "sd": isa.OpSD,
}

var branchZeroOps = map[string]isa.Op{
	"blez": isa.OpBLEZ, "bgtz": isa.OpBGTZ, "bltz": isa.OpBLTZ, "bgez": isa.OpBGEZ,
}

// encode turns one statement into 1–2 instructions.
func (a *assembler) encode(it *item) ([]isa.Inst, error) {
	need := func(n int) error {
		if len(it.args) != n {
			return a.errf(it.line, "%s wants %d operands, got %d", it.mnem, n, len(it.args))
		}
		return nil
	}
	m := it.mnem
	switch {
	case m == "nop":
		return []isa.Inst{{Op: isa.OpNOP}}, nil
	case m == "halt":
		return []isa.Inst{{Op: isa.OpHALT}}, nil
	case m == "syscall":
		if err := need(0); err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpSYSCALL}}, nil
	case aluRegOps[m] != 0:
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		rt, err := a.reg(it, it.args[2])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: aluRegOps[m], Rd: rd, Rs: rs, Rt: rt}}, nil
	case aluImmOps[m] != 0:
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		imm, err := a.value(it, it.args[2])
		if err != nil {
			return nil, err
		}
		if m == "sll" || m == "srl" || m == "sra" {
			if imm < 0 || imm > 63 {
				return nil, a.errf(it.line, "%s shift amount %d out of range 0..63", m, imm)
			}
		}
		return []isa.Inst{{Op: aluImmOps[m], Rd: rd, Rs: rs, Imm: imm}}, nil
	case m == "lui":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		imm, err := a.value(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpLUI, Rd: rd, Imm: imm}}, nil
	case m == "li" || m == "la":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		imm, err := a.value(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpLI, Rd: rd, Imm: imm}}, nil
	case m == "move":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpOR, Rd: rd, Rs: rs, Rt: isa.Zero}}, nil
	case m == "neg":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpSUB, Rd: rd, Rs: isa.Zero, Rt: rs}}, nil
	case m == "not":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpNOR, Rd: rd, Rs: rs, Rt: isa.Zero}}, nil
	case loadOps[m] != 0:
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		off, rs, err := a.memOperand(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: loadOps[m], Rd: rd, Rs: rs, Imm: off}}, nil
	case storeOps[m] != 0:
		if err := need(2); err != nil {
			return nil, err
		}
		rt, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		off, rs, err := a.memOperand(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: storeOps[m], Rt: rt, Rs: rs, Imm: off}}, nil
	case m == "beq" || m == "bne":
		if err := need(3); err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rt, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		tgt, err := a.value(it, it.args[2])
		if err != nil {
			return nil, err
		}
		op := isa.OpBEQ
		if m == "bne" {
			op = isa.OpBNE
		}
		return []isa.Inst{{Op: op, Rs: rs, Rt: rt, Imm: tgt}}, nil
	case branchZeroOps[m] != 0:
		if err := need(2); err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		tgt, err := a.value(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: branchZeroOps[m], Rs: rs, Imm: tgt}}, nil
	case m == "blt" || m == "bge" || m == "ble" || m == "bgt" || m == "bltu" || m == "bgeu":
		if err := need(3); err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rt, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		tgt, err := a.value(it, it.args[2])
		if err != nil {
			return nil, err
		}
		slt := isa.OpSLT
		if m == "bltu" || m == "bgeu" {
			slt = isa.OpSLTU
		}
		// blt rs,rt: slt at,rs,rt; bne at,zero  |  bge: slt; beq
		// ble rs,rt: slt at,rt,rs; beq at,zero  |  bgt: slt(rt,rs); bne
		cmpA, cmpB := rs, rt
		br := isa.OpBNE
		switch m {
		case "bge", "bgeu":
			br = isa.OpBEQ
		case "ble":
			cmpA, cmpB = rt, rs
			br = isa.OpBEQ
		case "bgt":
			cmpA, cmpB = rt, rs
		}
		return []isa.Inst{
			{Op: slt, Rd: isa.AT, Rs: cmpA, Rt: cmpB},
			{Op: br, Rs: isa.AT, Rt: isa.Zero, Imm: tgt},
		}, nil
	case m == "j" || m == "b":
		if err := need(1); err != nil {
			return nil, err
		}
		tgt, err := a.value(it, it.args[0])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJ, Imm: tgt}}, nil
	case m == "jal" || m == "call":
		if err := need(1); err != nil {
			return nil, err
		}
		tgt, err := a.value(it, it.args[0])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJAL, Imm: tgt}}, nil
	case m == "jr":
		if err := need(1); err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJR, Rs: rs}}, nil
	case m == "jalr":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := a.reg(it, it.args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(it, it.args[1])
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJALR, Rd: rd, Rs: rs}}, nil
	case m == "ret":
		if err := need(0); err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJR, Rs: isa.RA}}, nil
	}
	return nil, a.errf(it.line, "unknown mnemonic %q", m)
}
