// Package kernels provides the second workload family: five classic
// algorithmic kernels (quicksort, RLE codec, BFS, matmul, string search)
// written against the sysos syscall ABI. Unlike the synthetic family —
// whose data is baked into the .data segment by Go generators — these
// programs read parameters from a preloaded stdin, build their working
// sets at runtime with an LCG over the sbrk heap, and report results
// through print syscalls, so every run exercises the sysos syscall layer
// end to end and its console output doubles as a correctness oracle
// (each kernel's output is pinned against a Go reference implementation
// in kernels_test.go).
//
// The package deliberately does not import internal/workloads (which
// imports it); Program carries just what the registry needs to wrap one
// kernel into a Workload.
package kernels

// lcgA/lcgC are the ANSI C rand() constants; every kernel that
// synthesizes data steps x = (x*lcgA + lcgC) & 0x7fffffff, and the Go
// oracles in the tests mirror the same recurrence.
const (
	lcgA = 1103515245
	lcgC = 12345
)

// Program is one kernel: assembly source plus the stdin that
// parameterizes it and an emulation cap (programs exit via syscall well
// before the cap).
type Program struct {
	Name      string
	Source    string
	Stdin     []byte
	MaxInstrs int
}

// All returns the five kernels in fixed family order.
func All() []Program {
	return []Program{Quicksort(), RLE(), BFS(), MatMul(), StrSearch()}
}

// Names returns the kernel names in family order.
func Names() []string {
	var out []string
	for _, p := range All() {
		out = append(out, p.Name)
	}
	return out
}
