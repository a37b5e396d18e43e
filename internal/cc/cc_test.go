package cc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// runMain compiles and executes a program, returning main's return value
// (left in $v0 by the generated epilogue before halt).
func runMain(t *testing.T, src string) int64 {
	t.Helper()
	p, err := CompileAndAssemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	for !m.Halted && m.Count < 5_000_000 {
		if err := m.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Halted {
		t.Fatal("compiled program did not halt")
	}
	return m.Regs[isa.V0]
}

func TestArithmetic(t *testing.T) {
	cases := map[string]int64{
		"return 2 + 3 * 4;":     14,
		"return (2 + 3) * 4;":   20,
		"return 10 - 7;":        3,
		"return 7 / 2;":         3,
		"return 7 % 3;":         1,
		"return -5;":            -5,
		"return ~0;":            -1,
		"return 1 << 5;":        32,
		"return -16 >> 2;":      -4,
		"return 12 & 10;":       8,
		"return 12 | 3;":        15,
		"return 12 ^ 10;":       6,
		"return 0x10;":          16,
		"return 3 < 4;":         1,
		"return 4 < 3;":         0,
		"return 4 <= 4;":        1,
		"return 5 > 4;":         1,
		"return 4 >= 5;":        0,
		"return 4 == 4;":        1,
		"return 4 != 4;":        0,
		"return !0;":            1,
		"return !7;":            0,
		"return 1 + 2 == 3;":    1,
		"return 2 * 3 + 4 * 5;": 26,
		"return 100 - 10 - 5;":  85, // left associative
		"return 1 << 3 >> 1;":   4,
	}
	for body, want := range cases {
		src := "func main() { " + body + " }"
		if got := runMain(t, src); got != want {
			t.Errorf("%s = %d, want %d", body, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// g counts side effects: the right operand must not evaluate when the
	// left decides.
	src := `
var g;
func bump() { g = g + 1; return 1; }
func main() {
  var r;
  r = 0 && bump();     // no bump
  r = r + (1 && bump()); // bump, r += 1
  r = r + (1 || bump()); // no bump, r += 1
  r = r + (0 || bump()); // bump, r += 1
  return r * 100 + g;
}`
	if got := runMain(t, src); got != 302 {
		t.Fatalf("short-circuit result = %d, want 302", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
func main() {
  var i; var acc;
  acc = 0;
  for (i = 0; i < 20; i = i + 1) {
    if (i % 2 == 0) { continue; }
    if (i > 14) { break; }
    acc = acc + i;       // 1+3+5+7+9+11+13 = 49
  }
  while (acc > 40) { acc = acc - 10; } // 39
  if (acc == 39) { return acc; } else { return -1; }
}`
	if got := runMain(t, src); got != 39 {
		t.Fatalf("control flow result = %d, want 39", got)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
func classify(x) {
  if (x < 0) { return 1; }
  else if (x == 0) { return 2; }
  else if (x < 10) { return 3; }
  else { return 4; }
}
func main() {
  return classify(-5) * 1000 + classify(0) * 100 + classify(5) * 10 + classify(50);
}`
	if got := runMain(t, src); got != 1234 {
		t.Fatalf("else-if result = %d, want 1234", got)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	src := `
var total;
var table[16];
func main() {
  var i;
  for (i = 0; i < 16; i = i + 1) { table[i] = i * i; }
  total = 0;
  for (i = 0; i < 16; i = i + 1) { total = total + table[i]; }
  return total;    // sum of squares 0..15 = 1240
}`
	if got := runMain(t, src); got != 1240 {
		t.Fatalf("array result = %d, want 1240", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func gcd(a, b) {
  while (b != 0) { var t; t = b; b = a % b; a = t; }
  return a;
}
func main() { return fib(12) * 1000 + gcd(462, 1071); }`
	if got := runMain(t, src); got != 144*1000+21 {
		t.Fatalf("recursion result = %d, want %d", got, 144*1000+21)
	}
}

func TestCallInExpression(t *testing.T) {
	// Live temporaries must survive across the inner calls.
	src := `
func two() { return 2; }
func three() { return 3; }
func main() { return 100 + two() * 10 + three() + two(); }`
	if got := runMain(t, src); got != 125 {
		t.Fatalf("nested call result = %d, want 125", got)
	}
}

func TestFourParams(t *testing.T) {
	src := `
func combine(a, b, c, d) { return a * 1000 + b * 100 + c * 10 + d; }
func main() { return combine(1, 2, 3, 4); }`
	if got := runMain(t, src); got != 1234 {
		t.Fatalf("four params = %d, want 1234", got)
	}
}

func TestVarInit(t *testing.T) {
	src := `func main() { var x = 6; var y = x * 7; return y; }`
	if got := runMain(t, src); got != 42 {
		t.Fatalf("var init = %d, want 42", got)
	}
}

func TestFallThroughReturnsZero(t *testing.T) {
	src := `
var g;
func side() { g = 5; }
func main() { side(); return g + side(); }`
	if got := runMain(t, src); got != 5 {
		t.Fatalf("void-ish function = %d, want 5", got)
	}
}

func TestDivModByZero(t *testing.T) {
	// The ISA defines division by zero as 0; the compiler inherits it.
	src := `func main() { var z = 0; return 7 / z + 7 % z; }`
	if got := runMain(t, src); got != 0 {
		t.Fatalf("div by zero = %d, want 0", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"func f() { return 1; }":              "no main function",
		"func main() { return x; }":           "undefined variable",
		"func main() { x = 1; }":              "undefined variable",
		"func main() { return f(); }":         "undefined function",
		"func main() { break; }":              "break outside",
		"func main() { continue; }":           "continue outside",
		"func main(a, b, c, d, e) { }":        "at most 4 parameters",
		"var a; var a; func main() { }":       "duplicate global",
		"func main() { var x; var x; }":       "duplicate local",
		"func main() { } func main() { }":     "duplicate function",
		"func main() { return 1 + ; }":        "unexpected",
		"func main() { if (1) { return 1; }":  "unterminated block",
		"var t[0]; func main() { }":           "array size",
		"func main() { var v; return v[2]; }": "not a global array",
		"var g; func main() { g[1] = 2; }":    "not a global array",
		"var a[4]; func main() { return a; }": "needs an index",
		"func main() { return $; }":           "unexpected character",
	}
	for src, wantSub := range cases {
		_, err := Compile(src)
		if wantSub == "" {
			if err != nil {
				t.Errorf("source %q failed: %v", src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("source %q compiled without error", src)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("source %q: error %q does not mention %q", src, err, wantSub)
		}
	}
}

func TestLeftNestedExpressionsStayShallow(t *testing.T) {
	// Left-nested chains reuse the same stack slot, so arbitrarily long
	// chains compile and evaluate correctly.
	expr := "1"
	want := int64(1)
	for i := int64(2); i <= 40; i++ {
		expr = "(" + expr + " + " + itoa(i) + ")"
		want += i
	}
	if got := runMain(t, "func main() { return "+expr+"; }"); got != want {
		t.Fatalf("long chain = %d, want %d", got, want)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestExpressionTooDeep(t *testing.T) {
	// Ten live temporaries through right-nested non-constant additions
	// (constants would fold away before code generation).
	expr := "x"
	for i := 0; i < 10; i++ {
		expr = "x + (" + expr + ")"
	}
	_, err := Compile("func main() { var x = 1; return " + expr + "; }")
	if err == nil || !strings.Contains(err.Error(), "too deep") {
		t.Fatalf("deep expression error = %v", err)
	}
}

func TestErrorLineNumbers(t *testing.T) {
	_, err := Compile("func main() {\n  var x;\n  y = 1;\n}")
	ce, ok := err.(*Error)
	if !ok || ce.Line != 3 {
		t.Fatalf("error = %v, want line 3", err)
	}
}

// TestCompiledControlFlowAnalyzable: the spawn analysis finds the expected
// structures in compiler-generated code — hammocks from if/else and
// short-circuit joins, loopFT from loop latches, procFT from calls.
func TestCompiledControlFlowAnalyzable(t *testing.T) {
	src := `
var data[64];
func work(x) {
  if (x & 1) { x = x * 3 + 1; } else { x = x / 2; }
  return x;
}
func main() {
  var i; var acc;
  acc = 0;
  for (i = 0; i < 500; i = i + 1) {
    acc = acc + work(i & 63);
    if (acc > 100000 && i & 3) { acc = acc - 1000; }
    data[i & 63] = acc;
  }
  return acc;
}`
	p, err := CompileAndAssemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Run(p, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, tr.IndirectTargets())
	if err != nil {
		t.Fatal(err)
	}
	kinds := a.CountByKind()
	if kinds[core.KindHammock] == 0 {
		t.Errorf("no hammocks in compiled if/else: %v", kinds)
	}
	if kinds[core.KindProcFT] == 0 {
		t.Errorf("no procedure fall-throughs at compiled calls: %v", kinds)
	}
	if kinds[core.KindLoopFT] == 0 {
		t.Errorf("no loop fall-throughs at compiled latches: %v", kinds)
	}
	if kinds[core.KindLoop] == 0 {
		t.Errorf("no loop-iteration spawns in compiled loop: %v", kinds)
	}
}
