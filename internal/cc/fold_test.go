package cc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/emu"
	"repro/internal/isa"
)

// countOps counts occurrences of a mnemonic in generated assembly.
func countOps(t *testing.T, src, mnem string) int {
	t.Helper()
	out, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == mnem {
			n++
		}
	}
	return n
}

func TestConstantExpressionsFold(t *testing.T) {
	src := "func main() { return 2 + 3 * 4 - (10 / 2); }"
	if got := countOps(t, src, "add"); got != 0 {
		t.Errorf("constant adds survived folding: %d", got)
	}
	if got := countOps(t, src, "mul"); got != 0 {
		t.Errorf("constant muls survived folding: %d", got)
	}
	if got := runMain(t, src); got != 9 {
		t.Errorf("folded result = %d, want 9", got)
	}
}

func TestDeadBranchElimination(t *testing.T) {
	src := `
func main() {
  if (1 == 2) { return 111; }
  if (3 > 2) { return 42; } else { return 222; }
}`
	// The statically-decided branches leave no conditional branches.
	if got := countOps(t, src, "beq") + countOps(t, src, "bne"); got != 0 {
		t.Errorf("dead branches survived: %d conditional branches", got)
	}
	if got := runMain(t, src); got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
}

func TestWhileZeroElimination(t *testing.T) {
	src := "var g; func main() { while (0) { g = 1; } return g; }"
	if got := countOps(t, src, "beq") + countOps(t, src, "bne"); got != 0 {
		t.Errorf("while(0) survived")
	}
	if got := runMain(t, src); got != 0 {
		t.Errorf("result = %d", got)
	}
}

func TestForFalseKeepsInit(t *testing.T) {
	src := "var g; func main() { for (g = 7; 0; g = g + 1) { g = 99; } return g; }"
	if got := runMain(t, src); got != 7 {
		t.Errorf("for(;0;) init lost: %d", got)
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	cases := []string{
		"func main() { var x = 5; return x + 0; }",
		"func main() { var x = 5; return 0 + x; }",
		"func main() { var x = 5; return x * 1; }",
		"func main() { var x = 5; return x / 1; }",
		"func main() { var x = 5; return x << 0; }",
	}
	for _, src := range cases {
		if countOps(t, src, "add")+countOps(t, src, "mul")+
			countOps(t, src, "div")+countOps(t, src, "sllv") > 0 {
			t.Errorf("identity not simplified in %q", src)
		}
		if got := runMain(t, src); got != 5 {
			t.Errorf("%q = %d, want 5", src, got)
		}
	}
	// x * 0 with a pure x folds to 0.
	z := "func main() { var x = 5; return x * 0; }"
	if countOps(t, z, "mul") != 0 {
		t.Errorf("x*0 not folded")
	}
	if got := runMain(t, z); got != 0 {
		t.Errorf("x*0 = %d", got)
	}
}

func TestImpureExpressionsSurvive(t *testing.T) {
	// bump() has side effects: "bump() * 0" and a dead expression
	// statement "bump();" must still call it; "0 && bump()" must not.
	src := `
var g;
func bump() { g = g + 1; return 1; }
func main() {
  var r = bump() * 0;   // calls bump, result 0
  bump();               // statement with side effect
  r = r + (0 && bump()); // short-circuit: no call
  return g * 10 + r;
}`
	if got := runMain(t, src); got != 20 {
		t.Fatalf("side effects mishandled: %d, want 20", got)
	}
}

func TestConstantShortCircuit(t *testing.T) {
	src := `
var g;
func bump() { g = g + 1; return 7; }
func main() {
  var a = 1 && bump();  // normalizes bump's result to 1
  var b = 1 || bump();  // no call
  var c = 0 || bump();  // normalizes to 1
  return a * 100 + b * 10 + c + g * 1000;
}`
	if got := runMain(t, src); got != 2111 {
		t.Fatalf("constant short-circuit = %d, want 2111", got)
	}
}

// TestQuickFoldEquivalence: folding any constant binary expression agrees
// with the emulated unfolded semantics (via evalConst against the Go
// semantics used to define the ISA).
func TestQuickFoldEquivalence(t *testing.T) {
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<", "<=", ">", ">=", "==", "!="}
	prop := func(a, b int32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		v, ok := evalConst(op, int64(a), int64(b))
		if !ok {
			return false
		}
		src := "func main() { var x = " + itoa64(int64(a)) + "; var y = " + itoa64(int64(b)) +
			"; return x " + op + " y; }"
		p, err := CompileAndAssemble(src)
		if err != nil {
			return false
		}
		got, err := execMain(p)
		if err != nil {
			return false
		}
		return got == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func execMain(p *isa.Program) (int64, error) {
	m := emu.New(p)
	for !m.Halted && m.Count < 1_000_000 {
		if err := m.Step(nil); err != nil {
			return 0, err
		}
	}
	return m.Regs[isa.V0], nil
}

func itoa64(v int64) string {
	if v < 0 {
		// Avoid unary-minus literals: emit (0 - abs) to keep the lexer
		// simple for MinInt-free int32 inputs.
		return "(0 - " + itoa(-v) + ")"
	}
	return itoa(v)
}
