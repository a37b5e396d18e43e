// Package sysos is the thin operating-system layer under the kernels
// workload family: a deterministic syscall implementation (console I/O
// over a preloaded stdin, an sbrk heap, exit-with-code) and the memory map
// (data, heap, stack) that its programs run under.
//
// Determinism contract: every service is a pure function of the machine
// state and the OS's own state (stdin cursor, output buffer, heap break),
// and the OS is seeded entirely from its stdin. Two runs of the same
// program over the same stdin therefore retire byte-identical traces and
// produce byte-identical output — which is what lets syscall workloads
// share the artifact cache, the trace store, and every remote run path
// with the synthetic workloads. See docs/WORKLOADS.md for the full ABI.
package sysos

import (
	"fmt"
	"strconv"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Syscall numbers, read from $v0 (SPIM-flavored). Arguments arrive in
// $a0/$a1; the result is written back to $v0.
const (
	SysPrintInt    = 1  // print $a0 in decimal; returns bytes written
	SysPrintString = 4  // print NUL-terminated string at $a0; returns bytes written
	SysReadInt     = 5  // read a whitespace-delimited integer from stdin (0 at EOF)
	SysSbrk        = 9  // grow the heap by $a0 bytes; returns the old break
	SysExit        = 10 // halt with exit code 0
	SysPrintChar   = 11 // print the byte in $a0; returns 1
	SysReadChar    = 12 // read one byte from stdin (-1 at EOF)
	SysExit2       = 17 // halt with exit code $a0
)

// The memory map and the OS's limits. The heap sits between the data
// segment (isa.DefaultDataBase) and the stack, which grows down from
// isa.DefaultStackTop. Both sbrk and Segments read the heap bounds from
// here, so the allocator and the memory map cannot disagree.
const (
	DefaultHeapBase  uint64 = 0x400000
	DefaultHeapSize  uint64 = 0x200000 // 2 MiB
	DefaultStackSize uint64 = 0x100000 // 1 MiB
	// DefaultMaxOutput bounds the captured output of one run.
	DefaultMaxOutput = 1 << 20
	// maxStringLen bounds a single print_string scan, so a missing NUL
	// terminator faults instead of walking the whole address space.
	maxStringLen = 1 << 16
)

// OS implements emu.SyscallHandler deterministically.
type OS struct {
	stdin    []byte
	in       int // stdin read cursor
	out      []byte
	brk      uint64
	exited   bool
	exitCode int64
}

// New returns a fresh OS whose read syscalls consume stdin.
func New(stdin []byte) *OS {
	return &OS{stdin: stdin, brk: DefaultHeapBase}
}

// Output returns the bytes the program printed so far.
func (o *OS) Output() []byte { return o.out }

// Exited reports whether the program exited via syscall and its code.
func (o *OS) Exited() (code int64, ok bool) { return o.exitCode, o.exited }

// Syscall services one OpSYSCALL instruction.
func (o *OS) Syscall(m *emu.Machine) (int64, error) {
	num := m.Regs[isa.V0]
	a0 := m.Regs[isa.A0]
	switch num {
	case SysPrintInt:
		return o.emit(strconv.AppendInt(nil, a0, 10))
	case SysPrintString:
		s, err := o.cstring(m, uint64(a0))
		if err != nil {
			return 0, err
		}
		return o.emit(s)
	case SysReadInt:
		return o.readInt(), nil
	case SysSbrk:
		if a0 < 0 {
			return 0, fmt.Errorf("sysos: sbrk(%d): negative size", a0)
		}
		end := DefaultHeapBase + DefaultHeapSize
		if uint64(a0) > end-o.brk {
			return 0, fmt.Errorf("sysos: sbrk(%d): heap exhausted (break 0x%x, limit 0x%x)", a0, o.brk, end)
		}
		old := o.brk
		o.brk += uint64(a0)
		return int64(old), nil
	case SysExit:
		o.exited, o.exitCode = true, 0
		m.Halted = true
		return 0, nil
	case SysPrintChar:
		return o.emit([]byte{byte(a0)})
	case SysReadChar:
		if o.in >= len(o.stdin) {
			return -1, nil
		}
		c := o.stdin[o.in]
		o.in++
		return int64(c), nil
	case SysExit2:
		o.exited, o.exitCode = true, a0
		m.Halted = true
		return a0, nil
	}
	return 0, fmt.Errorf("sysos: unknown syscall %d", num)
}

// emit appends b to the captured output under the output cap and returns
// the byte count.
func (o *OS) emit(b []byte) (int64, error) {
	if len(o.out)+len(b) > DefaultMaxOutput {
		return 0, fmt.Errorf("sysos: output limit %d bytes exceeded", DefaultMaxOutput)
	}
	o.out = append(o.out, b...)
	return int64(len(b)), nil
}

// cstring reads the NUL-terminated string at addr from program memory.
func (o *OS) cstring(m *emu.Machine, addr uint64) ([]byte, error) {
	var s []byte
	for i := 0; i < maxStringLen; i++ {
		c := m.Mem.Load8(addr + uint64(i))
		if c == 0 {
			return s, nil
		}
		s = append(s, c)
	}
	return nil, fmt.Errorf("sysos: print_string at 0x%x: no NUL terminator within %d bytes", addr, maxStringLen)
}

// readInt consumes a whitespace-delimited decimal integer (optional '-')
// from stdin; at EOF, or when the next token has no digits, it returns 0.
func (o *OS) readInt() int64 {
	in := o.stdin
	for o.in < len(in) && isSpace(in[o.in]) {
		o.in++
	}
	neg := false
	if o.in < len(in) && (in[o.in] == '-' || in[o.in] == '+') {
		neg = in[o.in] == '-'
		o.in++
	}
	var v int64
	for o.in < len(in) && in[o.in] >= '0' && in[o.in] <= '9' {
		v = v*10 + int64(in[o.in]-'0')
		o.in++
	}
	if neg {
		v = -v
	}
	return v
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Segments returns the memory map for a kernels-family program: its data
// segment, the sbrk heap, and the downward-growing stack. Attached to
// emu.Config.Segments, stray accesses fault with context (the code
// segment is enforced separately by instruction fetch).
func Segments(p *isa.Program) []emu.Segment {
	return []emu.Segment{
		{Name: "data", Base: p.DataBase, Size: uint64(len(p.Data))},
		{Name: "heap", Base: DefaultHeapBase, Size: DefaultHeapSize},
		{Name: "stack", Base: isa.DefaultStackTop - DefaultStackSize, Size: DefaultStackSize},
	}
}

// Result is the outcome of one convenience Run.
type Result struct {
	Output   []byte
	ExitCode int64
	Exited   bool // exited via syscall (vs a bare halt)
	Count    int64
}

// Run executes a program end-to-end under a fresh OS over stdin with the
// standard memory map and returns its captured output — the short path
// for tests that only want a program's console behavior.
func Run(p *isa.Program, stdin []byte, maxInstrs int) (*Result, error) {
	os := New(stdin)
	tr, err := emu.Run(p, emu.Config{MaxInstrs: maxInstrs, OS: os, Segments: Segments(p)})
	if err != nil {
		return nil, err
	}
	code, exited := os.Exited()
	return &Result{Output: os.Output(), ExitCode: code, Exited: exited, Count: int64(len(tr.Entries))}, nil
}
