package progen

import (
	"fmt"
	"strings"
)

// GenAsm: random ISA assembly programs. Termination is guaranteed by
// construction:
//
//   - every backward branch is a counter loop over a dedicated
//     callee-saved register that the loop body never writes (function i
//     owns $s(2i)/$s(2i+1) for nesting depths 1/2, so counters also
//     survive calls);
//   - the call graph is acyclic (function i only calls functions with a
//     higher index, all of which are generated first);
//   - indirect jumps go through .targets-annotated jump tables whose
//     cases all rejoin a forward label;
//   - every other branch is forward.
//
// The generator additionally tracks a worst-case dynamic instruction
// estimate per function and refuses shapes that would push it past a
// budget, keeping every program far under the emulator's cap.

const (
	asmMaxFuncs   = 4
	asmFuncBudget = 12000 // worst-case dynamic instructions per function
	asmBufSize    = 1024  // bytes of scratch data memory
	asmAddrMask   = 0x1F8 // keeps 8-byte accesses inside buf
)

// asmPlan is the generation-level representation of a GenAsm program.
// Rendering a plan is deterministic, and the minimizer works by dropping
// shapes from it rather than editing text.
type asmPlan struct {
	funcs []*asmFunc // funcs[0] is main
}

type asmFunc struct {
	idx    int
	shapes []ashape
	cost   int // worst-case dynamic instructions, calls included
}

func (f *asmFunc) name() string {
	if f.idx == 0 {
		return "main"
	}
	return fmt.Sprintf("f%d", f.idx)
}

func (f *asmFunc) hasCalls() bool {
	var walk func(ss []ashape) bool
	walk = func(ss []ashape) bool {
		for _, s := range ss {
			switch n := s.(type) {
			case *callShape:
				return true
			case *hammockShape:
				if walk(n.then) || walk(n.els) {
					return true
				}
			case *loopShape:
				if walk(n.body) {
					return true
				}
			case *switchShape:
				for _, c := range n.cases {
					if walk(c) {
						return true
					}
				}
			}
		}
		return false
	}
	return walk(f.shapes)
}

// ashape is one generated code shape. cost() is the worst-case dynamic
// instruction count of executing the shape once.
type ashape interface{ cost() int }

type aluShape struct{ lines []string }

func (s *aluShape) cost() int { return len(s.lines) }

type memShape struct {
	store  bool
	width  int // 1, 2, 4, 8
	reg    int // $t register moved to/from memory
	addr   int // $t register hashed into the address
	offset int
}

func (s *memShape) cost() int { return 4 }

type hammockShape struct {
	cond      string // branch mnemonic
	rs, rt    int    // $t registers ($rt unused for compare-zero forms)
	twoReg    bool
	then, els []ashape
}

func (s *hammockShape) cost() int {
	c := 2
	for _, x := range s.then {
		c += x.cost()
	}
	for _, x := range s.els {
		c += x.cost()
	}
	return c + 1
}

type loopShape struct {
	iters int
	depth int // 1 or 2: selects the function's counter register
	body  []ashape
}

func (s *loopShape) cost() int {
	c := 0
	for _, x := range s.body {
		c += x.cost()
	}
	return 1 + s.iters*(c+2)
}

type switchShape struct {
	idxReg int // $t register whose low bits select the case
	cases  [][]ashape
}

func (s *switchShape) cost() int {
	c := 6
	for _, cs := range s.cases {
		for _, x := range cs {
			c += x.cost()
		}
	}
	return c
}

type callShape struct {
	callee *asmFunc
}

func (s *callShape) cost() int { return 6 + s.callee.cost }

// GenAsm renders the assembly program for seed. Byte-identical output for
// identical seeds.
func GenAsm(seed uint64) string { return genAsmPlan(newRNG(seed)).render() }

func genAsmPlan(r *rng) *asmPlan {
	nFuncs := r.rangeInt(1, asmMaxFuncs)
	p := &asmPlan{funcs: make([]*asmFunc, nFuncs)}
	// Leaf-most functions first so callShape costs are known.
	for i := nFuncs - 1; i >= 0; i-- {
		f := &asmFunc{idx: i}
		p.funcs[i] = f
		budget := asmFuncBudget
		f.shapes = genAsmBody(r, p, f, 1, &budget, r.rangeInt(2, 6))
		for _, s := range f.shapes {
			f.cost += s.cost()
		}
		f.cost += 4 // prologue/epilogue
	}
	return p
}

// genAsmBody generates up to want shapes at the given loop depth,
// spending from the function's worst-case-cost budget. Shapes that would
// overrun the budget are regenerated as cheap ALU bursts.
func genAsmBody(r *rng, p *asmPlan, f *asmFunc, depth int, budget *int, want int) []ashape {
	var out []ashape
	for i := 0; i < want; i++ {
		s := genAsmShape(r, p, f, depth, budget)
		if s == nil {
			break
		}
		out = append(out, s)
	}
	return out
}

func genAsmShape(r *rng, p *asmPlan, f *asmFunc, depth int, budget *int) ashape {
	// Compound shapes recurse into their bodies before they are charged,
	// so a near-empty budget must stop the recursion up front.
	if *budget <= 2 {
		if *budget >= 1 {
			*budget--
			return &aluShape{lines: []string{genALULine(r)}}
		}
		return nil
	}
	charge := func(s ashape) ashape {
		c := s.cost()
		if c > *budget {
			return nil
		}
		*budget -= c
		return s
	}
	for attempt := 0; attempt < 4; attempt++ {
		switch r.intn(10) {
		case 0, 1, 2: // ALU burst
			n := r.rangeInt(2, 6)
			lines := make([]string, 0, n)
			for j := 0; j < n; j++ {
				lines = append(lines, genALULine(r))
			}
			if s := charge(&aluShape{lines: lines}); s != nil {
				return s
			}
		case 3, 4: // load or store
			s := &memShape{
				store:  r.chance(1, 2),
				width:  []int{1, 2, 4, 8}[r.intn(4)],
				reg:    r.intn(8),
				addr:   r.intn(8),
				offset: r.intn(8),
			}
			if c := charge(s); c != nil {
				return c
			}
		case 5, 6: // forward hammock
			h := &hammockShape{rs: r.intn(8), rt: r.intn(8)}
			if r.chance(1, 2) {
				h.twoReg = true
				h.cond = []string{"beq", "bne"}[r.intn(2)]
			} else {
				h.cond = []string{"blez", "bgtz", "bltz", "bgez"}[r.intn(4)]
			}
			inner := *budget / 2
			h.then = genAsmBody(r, p, f, depth, &inner, r.rangeInt(1, 3))
			if r.chance(1, 2) {
				h.els = genAsmBody(r, p, f, depth, &inner, r.rangeInt(1, 2))
			}
			if s := charge(h); s != nil {
				return s
			}
		case 7: // counter loop (two nesting levels per function)
			if depth > 2 {
				continue
			}
			l := &loopShape{iters: r.rangeInt(2, 8), depth: depth}
			inner := *budget/(l.iters+1) - 3
			l.body = genAsmBody(r, p, f, depth+1, &inner, r.rangeInt(1, 4))
			if len(l.body) == 0 {
				continue
			}
			if s := charge(l); s != nil {
				return s
			}
		case 8: // switch through an annotated jump table
			ncases := []int{2, 4}[r.intn(2)]
			sw := &switchShape{idxReg: r.intn(8)}
			for c := 0; c < ncases; c++ {
				inner := *budget / (ncases + 1)
				sw.cases = append(sw.cases, genAsmBody(r, p, f, depth, &inner, r.rangeInt(1, 2)))
			}
			if s := charge(sw); s != nil {
				return s
			}
		case 9: // call a higher-indexed function (acyclic by construction)
			if f.idx+1 >= len(p.funcs) {
				continue
			}
			callee := p.funcs[f.idx+1+r.intn(len(p.funcs)-f.idx-1)]
			if s := charge(&callShape{callee: callee}); s != nil {
				return s
			}
		}
	}
	// Budget exhausted for anything interesting: a single cheap line.
	if *budget >= 1 {
		*budget--
		return &aluShape{lines: []string{genALULine(r)}}
	}
	return nil
}

var asmRegOps = []string{"add", "sub", "and", "or", "xor", "nor", "slt", "sltu",
	"sllv", "srlv", "srav", "mul", "div", "rem"}
var asmImmOps = []string{"addi", "andi", "ori", "xori", "slti"}
var asmShiftOps = []string{"sll", "srl", "sra"}

func genALULine(r *rng) string {
	t := func() string { return fmt.Sprintf("$t%d", r.intn(8)) }
	switch r.intn(5) {
	case 0, 1:
		op := asmRegOps[r.intn(len(asmRegOps))]
		return fmt.Sprintf("        %-4s %s, %s, %s", op, t(), t(), t())
	case 2:
		op := asmImmOps[r.intn(len(asmImmOps))]
		return fmt.Sprintf("        %-4s %s, %s, %d", op, t(), t(), r.rangeInt(-1024, 1023))
	case 3:
		op := asmShiftOps[r.intn(len(asmShiftOps))]
		return fmt.Sprintf("        %-4s %s, %s, %d", op, t(), t(), r.intn(64))
	default:
		v := int64(r.next()>>32) - (1 << 31)
		return fmt.Sprintf("        li   $t%d, %d", r.intn(8), v)
	}
}

// render emits the plan as assembly source. All label numbering flows from
// a single counter in plan-walk order, so rendering is deterministic.
func (p *asmPlan) render() string {
	rd := &asmRenderer{}
	rd.b.WriteString("# progen GenAsm program\n")
	for _, f := range p.funcs {
		rd.renderFunc(f)
	}
	rd.b.WriteString("\n        .data\n")
	fmt.Fprintf(&rd.b, "buf:    .space %d\n", asmBufSize)
	for _, tbl := range rd.tables {
		fmt.Fprintf(&rd.b, "%s: .word8 %s\n", tbl.name, strings.Join(tbl.cases, ", "))
	}
	return rd.b.String()
}

type asmTable struct {
	name  string
	cases []string
}

type asmRenderer struct {
	b      strings.Builder
	nLabel int
	tables []asmTable
	cur    *asmFunc
}

func (rd *asmRenderer) label(prefix string) string {
	rd.nLabel++
	return fmt.Sprintf("%s%d", prefix, rd.nLabel)
}

func (rd *asmRenderer) line(format string, args ...any) {
	fmt.Fprintf(&rd.b, format+"\n", args...)
}

func (rd *asmRenderer) renderFunc(f *asmFunc) {
	rd.cur = f
	rd.line("")
	rd.line("        .func %s", f.name())
	saveRA := f.idx != 0 && f.hasCalls()
	if saveRA {
		rd.line("        addi $sp, $sp, -8")
		rd.line("        sd   $ra, 0($sp)")
	}
	rd.renderShapes(f.shapes)
	if f.idx == 0 {
		rd.line("        halt")
		return
	}
	if saveRA {
		rd.line("        ld   $ra, 0($sp)")
		rd.line("        addi $sp, $sp, 8")
	}
	rd.line("        ret")
}

func (rd *asmRenderer) renderShapes(ss []ashape) {
	for _, s := range ss {
		switch n := s.(type) {
		case *aluShape:
			for _, l := range n.lines {
				rd.line("%s", l)
			}
		case *memShape:
			rd.line("        andi $t8, $t%d, %d", n.addr, asmAddrMask)
			rd.line("        la   $t9, buf")
			rd.line("        add  $t8, $t8, $t9")
			op := map[int][2]string{1: {"sb", "lb"}, 2: {"sh", "lh"}, 4: {"sw", "lw"}, 8: {"sd", "ld"}}[n.width]
			if n.store {
				rd.line("        %-4s $t%d, %d($t8)", op[0], n.reg, n.offset)
			} else {
				rd.line("        %-4s $t%d, %d($t8)", op[1], n.reg, n.offset)
			}
		case *hammockShape:
			join := rd.label("j")
			target := join
			if len(n.els) > 0 {
				target = rd.label("e")
			}
			if n.twoReg {
				rd.line("        %-4s $t%d, $t%d, %s", n.cond, n.rs, n.rt, target)
			} else {
				rd.line("        %-4s $t%d, %s", n.cond, n.rs, target)
			}
			rd.renderShapes(n.then)
			if len(n.els) > 0 {
				rd.line("        j    %s", join)
				rd.line("%s:", target)
				rd.renderShapes(n.els)
			}
			rd.line("%s:", join)
		case *loopShape:
			ctr := fmt.Sprintf("$s%d", 2*rd.cur.idx+n.depth-1)
			top := rd.label("l")
			rd.line("        li   %s, %d", ctr, n.iters)
			rd.line("%s:", top)
			rd.renderShapes(n.body)
			rd.line("        addi %s, %s, -1", ctr, ctr)
			rd.line("        bgtz %s, %s", ctr, top)
		case *switchShape:
			tbl := rd.label("jt")
			join := rd.label("j")
			labels := make([]string, len(n.cases))
			for i := range n.cases {
				labels[i] = rd.label("c")
			}
			rd.line("        andi $t8, $t%d, %d", n.idxReg, len(n.cases)-1)
			rd.line("        sll  $t8, $t8, 3")
			rd.line("        la   $t9, %s", tbl)
			rd.line("        add  $t8, $t8, $t9")
			rd.line("        ld   $t8, 0($t8)")
			rd.line("        jr   $t8")
			rd.line("        .targets %s", strings.Join(labels, ", "))
			for i, cs := range n.cases {
				rd.line("%s:", labels[i])
				rd.renderShapes(cs)
				if i != len(n.cases)-1 {
					rd.line("        j    %s", join)
				}
			}
			rd.line("%s:", join)
			rd.tables = append(rd.tables, asmTable{name: tbl, cases: labels})
		case *callShape:
			rd.line("        call %s", n.callee.name())
		}
	}
}
