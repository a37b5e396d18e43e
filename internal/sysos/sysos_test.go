package sysos

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
)

// hello prints a data-segment string, echoes stdin integers, allocates
// from the heap, and exits with a code — one program per syscall.
const hello = `
        .func main
main:
        la   $a0, greeting
        li   $v0, 4
        syscall                 # print_string
        li   $v0, 5
        syscall                 # read_int -> 41
        addi $s0, $v0, 1
        move $a0, $s0
        li   $v0, 1
        syscall                 # print_int 42
        li   $a0, 10
        li   $v0, 11
        syscall                 # print_char '\n'
        li   $a0, 64
        li   $v0, 9
        syscall                 # sbrk(64)
        move $s1, $v0
        li   $t0, 7
        sd   $t0, 0($s1)        # touch the heap
        ld   $t1, 0($s1)
        move $a0, $t1
        li   $v0, 17
        syscall                 # exit with code 7
        halt

        .data
greeting: .asciiz "hi: "
`

func mustAssemble(t *testing.T, src string) *Result {
	t.Helper()
	p, err := LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Config{Stdin: []byte(" 41 ")}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSyscallsEndToEnd(t *testing.T) {
	res := mustAssemble(t, hello)
	if got, want := string(res.Output), "hi: 42\n"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
	if !res.Exited || res.ExitCode != 7 {
		t.Fatalf("exit = (%d, %v), want (7, true)", res.ExitCode, res.Exited)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	a := mustAssemble(t, hello)
	b := mustAssemble(t, hello)
	if !bytes.Equal(a.Output, b.Output) || a.Count != b.Count {
		t.Fatalf("two runs differ: %q/%d vs %q/%d", a.Output, a.Count, b.Output, b.Count)
	}
}

func TestReadIntEOF(t *testing.T) {
	p, err := LoadSource(`
        .func main
main:   li $v0, 5
        syscall
        li $v0, 12
        syscall
        move $a0, $v0
        li $v0, 17
        syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Config{}, 1000) // empty stdin
	if err != nil {
		t.Fatal(err)
	}
	// read_int at EOF returns 0, read_char returns -1 — which the program
	// passes to exit2.
	if res.ExitCode != -1 {
		t.Fatalf("exit code = %d, want -1 (read_char EOF)", res.ExitCode)
	}
}

func TestSyscallWithoutOSFaults(t *testing.T) {
	p, err := asm.Assemble("main: li $v0, 1\n      syscall\n      halt\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = emu.Run(p, emu.Config{MaxInstrs: 100})
	if err == nil || !strings.Contains(err.Error(), "no OS attached") {
		t.Fatalf("err = %v, want no-OS fault", err)
	}
}

func TestUnknownSyscallFaults(t *testing.T) {
	p, err := asm.Assemble("main: li $v0, 999\n      syscall\n      halt\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, Config{}, 100)
	if err == nil || !strings.Contains(err.Error(), "unknown syscall 999") {
		t.Fatalf("err = %v, want unknown-syscall fault", err)
	}
}

func TestSbrkExhaustionFaults(t *testing.T) {
	p, err := asm.Assemble(`
main:   li $a0, 128
        li $v0, 9
        syscall
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	os := New(Config{HeapBase: DefaultHeapBase, HeapSize: 64})
	_, err = emu.Run(p, emu.Config{MaxInstrs: 100, OS: os})
	if err == nil || !strings.Contains(err.Error(), "heap exhausted") {
		t.Fatalf("err = %v, want heap-exhausted fault", err)
	}
}

// TestOutOfBoundsAccessReportsContext pins the satellite requirement: a
// stray access under a segment map faults with PC, effective address, and
// the mapped segments.
func TestOutOfBoundsAccessReportsContext(t *testing.T) {
	p, err := asm.Assemble(`
        .func main
main:   li $t0, 0x900000
        sd $t0, 0($t0)
        halt
        .data
buf:    .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, Config{}, 100)
	if err == nil {
		t.Fatal("out-of-segment store succeeded")
	}
	msg := err.Error()
	for _, want := range []string{
		"store of 8 bytes",
		"0x900000", // effective address
		"main",     // faulting PC's symbol
		"data [",   // segment map
		"heap [0x400000",
		"stack [",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	p, err := asm.Assemble(hello)
	if err != nil {
		t.Fatal(err)
	}
	// Exercise a jump-table program too.
	img, err := EncodeImage(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round-tripped program differs:\n%+v\n%+v", p, p2)
	}
	img2, err := EncodeImage(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatal("re-encoded image is not byte-identical")
	}
}

func TestLoadImageRejectsMalformed(t *testing.T) {
	p, err := asm.Assemble(hello)
	if err != nil {
		t.Fatal(err)
	}
	img, err := EncodeImage(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }, ""},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }, "trailing"},
		{"bad checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(bytes.Clone(img))
			_, err := LoadImage(mut)
			if err == nil {
				t.Fatal("malformed image loaded successfully")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
