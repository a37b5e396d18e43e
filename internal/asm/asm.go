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
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

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
	dataLen int    // bytes emitted (data section)
	bytes   []byte // decoded payload (.asciiz), produced during layout
}

type assembler struct {
	prog    *isa.Program
	items   []item
	labels  map[string]uint64
	funcSet map[string]bool
	lastJR  int // code index of most recent jr/jalr, for .targets

	// args backs every item's operand slice: operands are subslices of the
	// source, so a statement costs no allocation of its own.
	args []string
	// nLabels counts label and .func statements, sizing the label maps;
	// nCode and nData are the image sizes layout assigns, sizing emit's.
	nLabels, nCode, nData int
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
	lines := strings.Count(src, "\n") + 1
	a.items = make([]item, 0, lines)
	a.args = make([]string, 0, lines+strings.Count(src, ","))
	sec := secText
	for lineNo := 1; src != ""; lineNo++ {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		line = trim(stripComment(line))
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			// Anything before the first ':' that looks like an identifier
			// is a label; register/memory operands never precede ':'.
			lbl := trim(line[:i])
			if !isIdent(lbl) {
				break
			}
			a.args = append(a.args, lbl)
			a.items = append(a.items, item{line: lineNo, mnem: "<label>", args: a.args[len(a.args)-1 : len(a.args) : len(a.args)], sec: sec})
			a.nLabels++
			line = trim(line[i+1:])
		}
		if line == "" {
			continue
		}
		lo := len(a.args)
		var mnem string
		mnem, a.args = splitOperands(line, a.args)
		mnem = strings.ToLower(mnem)
		switch mnem {
		case ".text":
			sec = secText
		case ".data":
			sec = secData
		default:
			if mnem == ".func" {
				a.nLabels++
			}
			a.items = append(a.items, item{line: lineNo, mnem: mnem, args: a.args[lo:len(a.args):len(a.args)], sec: sec})
		}
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

// trim is strings.TrimSpace with a fast path for the ASCII spaces that
// surround nearly every field of assembly source.
func trim(s string) string {
	for len(s) > 0 && asciiSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && asciiSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && (s[0] >= utf8.RuneSelf || s[len(s)-1] >= utf8.RuneSelf) {
		return strings.TrimSpace(s)
	}
	return s
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// stripComment removes a '#' comment, ignoring '#' inside string literals
// (".asciiz \"#1\"" keeps its hash).
func stripComment(line string) string {
	if strings.IndexByte(line, '"') < 0 {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			return line[:i]
		}
		return line
	}
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

// splitOperands splits "op a, b, c" into the mnemonic "op" and the
// operands "a", "b", "c", appended to args as trimmed subslices of line.
// Memory operands like "8($sp)" and quoted strings (commas included) stay
// intact; empty operands are dropped.
func splitOperands(line string, args []string) (string, []string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, args
	}
	mnem, rest := line[:i], line[i+1:]
	if strings.IndexByte(rest, '"') < 0 { // no string literal: every comma splits
		for {
			j := strings.IndexByte(rest, ',')
			if j < 0 {
				return mnem, appendOperand(args, rest)
			}
			args, rest = appendOperand(args, rest[:j]), rest[j+1:]
		}
	}
	start, inStr := 0, false
	for j := 0; j < len(rest); j++ {
		switch c := rest[j]; {
		case inStr && c == '\\':
			j++ // skip the escaped byte
		case c == '"':
			inStr = !inStr
		case c == ',' && !inStr:
			args = appendOperand(args, rest[start:j])
			start = j + 1
		}
	}
	return mnem, appendOperand(args, rest[start:])
}

func appendOperand(args []string, f string) []string {
	if f = trim(f); f != "" {
		args = append(args, f)
	}
	return args
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
	a.labels = make(map[string]uint64, a.nLabels)
	codePos, dataPos := 0, 0
	for k := range a.items {
		it := &a.items[k]
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
			n, err := strconv.Atoi(trim(it.args[0]))
			if err != nil || n < 0 {
				return a.errf(it.line, "bad .space size")
			}
			it.dataLen = n
			dataPos += n
		case ".word8", ".word", ".word4", ".byte":
			it.dataLen = cellWidth(it.mnem) * len(it.args)
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
		default:
			if strings.HasPrefix(it.mnem, ".") {
				return a.errf(it.line, "unknown directive %s", it.mnem)
			}
			if it.sec != secText {
				return a.errf(it.line, "instruction in .data section")
			}
			codePos += instCount(it.mnem)
		}
	}
	a.nCode, a.nData = codePos, dataPos
	return nil
}

// emit is pass two: resolve operands and produce the final image.
func (a *assembler) emit() error {
	code := make([]isa.Inst, 0, a.nCode)
	data := make([]byte, 0, a.nData)
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
			width := cellWidth(it.mnem)
			for _, arg := range it.args {
				v, err := a.value(it, arg)
				if err != nil {
					return err
				}
				if err := a.checkWidth(it, v, width); err != nil {
					return err
				}
				switch width {
				case 8:
					data = binary.LittleEndian.AppendUint64(data, uint64(v))
				case 4:
					data = binary.LittleEndian.AppendUint32(data, uint32(v))
				default:
					data = append(data, byte(v))
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
			n := len(code)
			var err error
			if code, err = a.encode(it, code); err != nil {
				return err
			}
			for ; n < len(code); n++ {
				if code[n].Op == isa.OpJR || code[n].Op == isa.OpJALR {
					a.lastJR = n
				}
			}
		}
	}
	a.prog.Code = code
	a.prog.Data = data
	a.prog.Symbols = make(map[uint64]string, len(a.labels))
	for name, addr := range a.labels {
		if addr >= a.prog.CodeBase && addr < a.prog.CodeBase+uint64(len(code))*isa.InstSize {
			// Prefer function names over plain labels when both land on
			// the same address, and between two of a kind the name that
			// sorts first, so the map's iteration order never decides.
			old, ok := a.prog.Symbols[addr]
			if !ok || a.funcSet[name] && !a.funcSet[old] || a.funcSet[name] == a.funcSet[old] && name < old {
				a.prog.Symbols[addr] = name
			}
		}
	}
	return nil
}

// cellWidth is a data directive's cell size in bytes.
func cellWidth(mnem string) int {
	switch mnem {
	case ".word4":
		return 4
	case ".byte":
		return 1
	}
	return 8 // .word8 and the native .word
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
	s = trim(s)
	if v, ok := smallDecimal(s); ok {
		return v, nil
	}
	// Only a digit or a sign can start an integer literal; testing first
	// spares every label reference a failed parse and its error value.
	if s != "" && (s[0] >= '0' && s[0] <= '9' || s[0] == '-' || s[0] == '+') {
		if v, err := strconv.ParseInt(s, 0, 64); err == nil {
			return v, nil
		}
	}
	if addr, ok := a.labels[s]; ok {
		return int64(addr), nil
	}
	return 0, a.errf(it.line, "undefined symbol %q", s)
}

// smallDecimal parses the common literal, an optionally negative decimal
// of at most 18 digits without a leading zero, which cannot overflow;
// anything else is left to strconv.ParseInt.
func smallDecimal(s string) (int64, bool) {
	neg := s != "" && s[0] == '-'
	if neg {
		s = s[1:]
	}
	if s == "" || len(s) > 18 || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		v = 10*v + int64(c)
	}
	if neg {
		v = -v
	}
	return v, true
}

func (a *assembler) reg(it *item, s string) (isa.Reg, error) {
	s = trim(s)
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
	s = trim(s)
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

// form is an instruction mnemonic's operand shape.
type form uint8

const (
	formBare      form = iota // no operands checked: nop, halt
	formNone                  // exactly no operands: syscall, ret
	formRRR                   // rd, rs, rt
	formRRI                   // rd, rs, imm
	formRI                    // rd, imm
	formRR                    // rd, rs
	formLoad                  // rd, off(rs)
	formStore                 // rt, off(rs)
	formBranch                // rs, rt, target
	formBranchZ               // rs, target
	formCmpBranch             // rs, rt, target, through slt $at
	formJump                  // target
	formJR                    // rs
)

// operands is each form's operand count.
var operands = [...]int{formBare: -1, formNone: 0, formRRR: 3, formRRI: 3, formRI: 2, formRR: 2,
	formLoad: 2, formStore: 2, formBranch: 3, formBranchZ: 2, formCmpBranch: 3, formJump: 1, formJR: 1}

type mnemonic struct {
	form form
	op   isa.Op
}

var mnemonics = map[string]mnemonic{
	"nop": {formBare, isa.OpNOP}, "halt": {formBare, isa.OpHALT}, "syscall": {formNone, isa.OpSYSCALL},

	"add": {formRRR, isa.OpADD}, "sub": {formRRR, isa.OpSUB}, "and": {formRRR, isa.OpAND}, "or": {formRRR, isa.OpOR},
	"xor": {formRRR, isa.OpXOR}, "nor": {formRRR, isa.OpNOR}, "slt": {formRRR, isa.OpSLT}, "sltu": {formRRR, isa.OpSLTU},
	"sllv": {formRRR, isa.OpSLLV}, "srlv": {formRRR, isa.OpSRLV}, "srav": {formRRR, isa.OpSRAV},
	"mul": {formRRR, isa.OpMUL}, "div": {formRRR, isa.OpDIV}, "rem": {formRRR, isa.OpREM},

	"addi": {formRRI, isa.OpADDI}, "andi": {formRRI, isa.OpANDI}, "ori": {formRRI, isa.OpORI},
	"xori": {formRRI, isa.OpXORI}, "slti": {formRRI, isa.OpSLTI},
	"sll": {formRRI, isa.OpSLL}, "srl": {formRRI, isa.OpSRL}, "sra": {formRRI, isa.OpSRA},

	"lui": {formRI, isa.OpLUI}, "li": {formRI, isa.OpLI}, "la": {formRI, isa.OpLI},

	// move rd, rs = or rd, rs, $zero; neg rd, rs = sub rd, $zero, rs;
	// not rd, rs = nor rd, rs, $zero.
	"move": {formRR, isa.OpOR}, "neg": {formRR, isa.OpSUB}, "not": {formRR, isa.OpNOR},

	"lb": {formLoad, isa.OpLB}, "lbu": {formLoad, isa.OpLBU}, "lh": {formLoad, isa.OpLH},
	"lw": {formLoad, isa.OpLW}, "ld": {formLoad, isa.OpLD},
	"sb": {formStore, isa.OpSB}, "sh": {formStore, isa.OpSH}, "sw": {formStore, isa.OpSW}, "sd": {formStore, isa.OpSD},

	"beq": {formBranch, isa.OpBEQ}, "bne": {formBranch, isa.OpBNE},
	"blez": {formBranchZ, isa.OpBLEZ}, "bgtz": {formBranchZ, isa.OpBGTZ},
	"bltz": {formBranchZ, isa.OpBLTZ}, "bgez": {formBranchZ, isa.OpBGEZ},

	// The synthesized comparisons name their branch; the slt comes with it.
	"blt": {formCmpBranch, isa.OpBNE}, "bge": {formCmpBranch, isa.OpBEQ}, "ble": {formCmpBranch, isa.OpBEQ},
	"bgt": {formCmpBranch, isa.OpBNE}, "bltu": {formCmpBranch, isa.OpBNE}, "bgeu": {formCmpBranch, isa.OpBEQ},

	"j": {formJump, isa.OpJ}, "b": {formJump, isa.OpJ}, "jal": {formJump, isa.OpJAL}, "call": {formJump, isa.OpJAL},
	"jr": {formJR, isa.OpJR}, "jalr": {formRR, isa.OpJALR}, "ret": {formNone, isa.OpJR},
}

// operandReader resolves one statement's operands in order, keeping the
// first error.
type operandReader struct {
	a   *assembler
	it  *item
	err error
}

func (o *operandReader) reg(k int) isa.Reg {
	if o.err != nil {
		return 0
	}
	r, err := o.a.reg(o.it, o.it.args[k])
	o.err = err
	return r
}

func (o *operandReader) value(k int) int64 {
	if o.err != nil {
		return 0
	}
	v, err := o.a.value(o.it, o.it.args[k])
	o.err = err
	return v
}

func (o *operandReader) mem(k int) (int64, isa.Reg) {
	if o.err != nil {
		return 0, 0
	}
	off, r, err := o.a.memOperand(o.it, o.it.args[k])
	o.err = err
	return off, r
}

// encode appends one statement's 1–2 instructions to code.
func (a *assembler) encode(it *item, code []isa.Inst) ([]isa.Inst, error) {
	m := it.mnem
	mn, ok := mnemonics[m]
	if !ok {
		return nil, a.errf(it.line, "unknown mnemonic %q", m)
	}
	if n := operands[mn.form]; n >= 0 && len(it.args) != n {
		return nil, a.errf(it.line, "%s wants %d operands, got %d", m, n, len(it.args))
	}
	o := operandReader{a: a, it: it}
	in := isa.Inst{Op: mn.op}
	switch mn.form {
	case formNone:
		if m == "ret" {
			in.Rs = isa.RA
		}
	case formRRR:
		in.Rd, in.Rs, in.Rt = o.reg(0), o.reg(1), o.reg(2)
	case formRRI:
		in.Rd, in.Rs, in.Imm = o.reg(0), o.reg(1), o.value(2)
		if o.err == nil && (mn.op == isa.OpSLL || mn.op == isa.OpSRL || mn.op == isa.OpSRA) && (in.Imm < 0 || in.Imm > 63) {
			return nil, a.errf(it.line, "%s shift amount %d out of range 0..63", m, in.Imm)
		}
	case formRI:
		in.Rd, in.Imm = o.reg(0), o.value(1)
	case formRR:
		rd, rs := o.reg(0), o.reg(1)
		switch m {
		case "move", "not":
			in.Rd, in.Rs, in.Rt = rd, rs, isa.Zero
		case "neg":
			in.Rd, in.Rs, in.Rt = rd, isa.Zero, rs
		default: // jalr
			in.Rd, in.Rs = rd, rs
		}
	case formLoad:
		in.Rd = o.reg(0)
		in.Imm, in.Rs = o.mem(1)
	case formStore:
		in.Rt = o.reg(0)
		in.Imm, in.Rs = o.mem(1)
	case formBranch:
		in.Rs, in.Rt, in.Imm = o.reg(0), o.reg(1), o.value(2)
	case formBranchZ:
		in.Rs, in.Imm = o.reg(0), o.value(1)
	case formCmpBranch:
		rs, rt, tgt := o.reg(0), o.reg(1), o.value(2)
		if o.err != nil {
			return nil, o.err
		}
		slt := isa.OpSLT
		if m == "bltu" || m == "bgeu" {
			slt = isa.OpSLTU
		}
		// blt rs,rt: slt at,rs,rt; bne at,zero  |  bge: slt; beq
		// ble rs,rt: slt at,rt,rs; beq at,zero  |  bgt: slt(rt,rs); bne
		if m == "ble" || m == "bgt" {
			rs, rt = rt, rs
		}
		return append(code,
			isa.Inst{Op: slt, Rd: isa.AT, Rs: rs, Rt: rt},
			isa.Inst{Op: mn.op, Rs: isa.AT, Rt: isa.Zero, Imm: tgt}), nil
	case formJump:
		in.Imm = o.value(0)
	case formJR:
		in.Rs = o.reg(0)
	}
	if o.err != nil {
		return nil, o.err
	}
	return append(code, in), nil
}
