package sysos

import (
	"bytes"
	"fmt"
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
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, []byte(" 41 "), 10_000)
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
	p, err := asm.Assemble(`
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
	res, err := Run(p, nil, 1000) // empty stdin
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
	_, err = Run(p, nil, 100)
	if err == nil || !strings.Contains(err.Error(), "unknown syscall 999") {
		t.Fatalf("err = %v, want unknown-syscall fault", err)
	}
}

// TestSbrkExhaustionFaults asks for one byte more than the whole heap.
func TestSbrkExhaustionFaults(t *testing.T) {
	p, err := asm.Assemble(fmt.Sprintf(`
main:   li $a0, %d
        li $v0, 9
        syscall
        halt
`, DefaultHeapSize+1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = emu.Run(p, emu.Config{MaxInstrs: 100, OS: New(nil)})
	if err == nil || !strings.Contains(err.Error(), "heap exhausted") {
		t.Fatalf("err = %v, want heap-exhausted fault", err)
	}
}

// TestSbrkHeapMatchesSegments holds the allocator and the memory map
// together: after sbrk hands out the whole heap, its last 8 bytes are
// mapped under Segments, and the next byte is refused.
func TestSbrkHeapMatchesSegments(t *testing.T) {
	p, err := asm.Assemble(fmt.Sprintf(`
        .func main
main:   li   $a0, %d
        li   $v0, 9
        syscall                 # sbrk(DefaultHeapSize) -> heap base
        li   $t0, %d
        add  $s0, $v0, $t0      # the heap's last 8 bytes
        li   $t1, 7
        sd   $t1, 0($s0)
        ld   $a0, 0($s0)
        li   $v0, 1
        syscall                 # print_int 7
        li   $a0, 1
        li   $v0, 9
        syscall                 # sbrk(1) past the end
        halt
`, DefaultHeapSize, DefaultHeapSize-8))
	if err != nil {
		t.Fatal(err)
	}
	os := New(nil)
	_, err = emu.Run(p, emu.Config{MaxInstrs: 100, OS: os, Segments: Segments(p)})
	if err == nil || !strings.Contains(err.Error(), "heap exhausted") {
		t.Fatalf("err = %v, want heap-exhausted fault on the last sbrk", err)
	}
	if got := string(os.Output()); got != "7" {
		t.Fatalf("output = %q, want %q from the heap's last word", got, "7")
	}
}

// TestOutputLimitFaults prints a 10-digit integer until the captured
// output would pass DefaultMaxOutput.
func TestOutputLimitFaults(t *testing.T) {
	p, err := asm.Assemble(`
        .func main
main:   li   $s0, 1000000000
loop:   move $a0, $s0
        li   $v0, 1
        syscall                 # print_int, 10 bytes
        j    loop
`)
	if err != nil {
		t.Fatal(err)
	}
	os := New(nil)
	_, err = emu.Run(p, emu.Config{MaxInstrs: 1_000_000, OS: os})
	if err == nil || !strings.Contains(err.Error(), "output limit") {
		t.Fatalf("err = %v, want output-limit fault", err)
	}
	if got, want := len(os.Output()), DefaultMaxOutput-DefaultMaxOutput%10; got != want {
		t.Fatalf("captured %d bytes, want %d (every whole print under the cap)", got, want)
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
	_, err = Run(p, nil, 100)
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
