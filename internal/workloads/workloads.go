// Package workloads provides the twelve synthetic benchmark programs that
// stand in for the paper's SPEC2000int binaries (see DESIGN.md §2 for the
// substitution argument). Each program is written in the repository's
// assembly language and engineered to exhibit the control-flow property the
// paper attributes to its namesake benchmark:
//
//	bzip2      run-length/MTF coding: mixed loops and data-dependent hammocks
//	crafty     deeply nested hard-to-predict conditionals over bitboards
//	gap        bytecode interpreter with indirect calls into many handlers
//	gcc        irregular code: switch dispatch, if-else chains, many blocks
//	gzip       LZ-style hashing with predictable inner loops
//	mcf        pointer chasing with cache misses feeding hard branches
//	parser     recursive descent over a random token stream
//	perlbmk    indirect-jump dispatch interpreter (hard BTB targets)
//	twolf      the paper's new_dbox_a kernel (Figure 6), faithfully ported
//	vortex     call-heavy layered object store with a large code footprint
//	vpr.place  simulated annealing: ~50% accept/reject hammocks
//	vpr.route  maze expansion loops with data-dependent breaks under an outer loop
//
// Program sizes are scaled to a few hundred thousand dynamic instructions
// (the paper runs 100M per benchmark after fast-forward).
package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/sysos"
	"repro/internal/workloads/kernels"
)

// Workload families. The synthetic family is the paper's twelve
// SPEC2000int stand-ins with generator-baked data segments; the kernels
// family (internal/workloads/kernels) is five algorithmic kernels that
// run over the sysos syscall layer and memory map with stdin-parameterized
// data.
const (
	FamilySynthetic = "synthetic"
	FamilyKernels   = "kernels"
)

// Workload is one registered benchmark program.
type Workload struct {
	Name   string
	Source string
	// MaxInstrs is the emulation cap; programs halt well before it.
	MaxInstrs int
	// Family tags which runtime the workload needs (empty means
	// FamilySynthetic, so zero-value construction stays valid).
	Family string
	// Stdin is the preloaded console input for kernels-family programs.
	Stdin []byte
}

// Assemble builds the workload's program (panicking on error: the
// built-in sources are fixtures whose validity is asserted by tests).
func (w Workload) Assemble() *isa.Program {
	return asm.MustAssemble(w.Source)
}

// SHA returns the workload's cache identity: the hex SHA-256 of its
// source, with the stdin folded in when present. For stdin-less workloads
// this is exactly artifact.SourceSHA(w.Source), so the synthetic family's
// existing artifact keys are unchanged.
func (w Workload) SHA() string {
	h := sha256.New()
	h.Write([]byte(w.Source))
	if len(w.Stdin) > 0 {
		h.Write([]byte{0})
		h.Write(w.Stdin)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// NewOS returns a fresh syscall handler for one run of the workload: a
// sysos instance over the workload's stdin for the kernels family, nil
// for synthetic workloads (which make no syscalls). Handlers are
// stateful, so every emulation and architectural re-check needs its own.
func (w Workload) NewOS() emu.SyscallHandler {
	if w.Family != FamilyKernels {
		return nil
	}
	return sysos.New(w.Stdin)
}

// Segments returns the memory map to enforce while emulating the
// workload, nil for the synthetic family (whose generators lay data out
// by absolute address without a heap or stack).
func (w Workload) Segments(prog *isa.Program) []emu.Segment {
	if w.Family != FamilyKernels {
		return nil
	}
	return sysos.Segments(prog)
}

// The generators are deterministic (fixed rand seeds — SourceSHA keys the
// artifact cache on their output), so the workload table is built exactly
// once. Callers like the polyflowd submit path resolve workloads per
// request; regenerating twelve program sources each time dominated their
// profiles.
var (
	allWorkloads = sync.OnceValue(func() []Workload {
		return []Workload{
			Bzip2(), Crafty(), Gap(), GCC(), Gzip(), MCF(),
			Parser(), Perlbmk(), Twolf(), Vortex(), VPRPlace(), VPRRoute(),
		}
	})
	kernelWorkloads = sync.OnceValue(func() []Workload {
		var out []Workload
		for _, k := range kernels.All() {
			out = append(out, Workload{
				Name:      k.Name,
				Source:    k.Source,
				MaxInstrs: k.MaxInstrs,
				Family:    FamilyKernels,
				Stdin:     k.Stdin,
			})
		}
		return out
	})
	workloadIndex = sync.OnceValue(func() map[string]Workload {
		idx := make(map[string]Workload)
		for _, w := range allWorkloads() {
			idx[w.Name] = w
		}
		for _, w := range kernelWorkloads() {
			if _, dup := idx[w.Name]; dup {
				panic(fmt.Sprintf("workloads: kernel %q collides with a synthetic workload", w.Name))
			}
			idx[w.Name] = w
		}
		return idx
	})
)

// All returns the twelve synthetic workloads in the paper's figure order.
// (The name predates the kernels family; grid defaults and the pinned
// figure set are built on it, so it deliberately excludes kernels — use
// AllFamilies or Kernels for the rest.)
func All() []Workload {
	return slices.Clone(allWorkloads())
}

// Kernels returns the kernels-family workloads in family order.
func Kernels() []Workload {
	return slices.Clone(kernelWorkloads())
}

// Families lists the registered family names.
func Families() []string { return []string{FamilySynthetic, FamilyKernels} }

// ByFamily returns one family's workloads in its canonical order, or nil
// for an unknown family name.
func ByFamily(family string) []Workload {
	switch family {
	case FamilySynthetic, "":
		return All()
	case FamilyKernels:
		return Kernels()
	}
	return nil
}

// Names returns the synthetic workload names in figure order.
func Names() []string {
	var out []string
	for _, w := range allWorkloads() {
		out = append(out, w.Name)
	}
	return out
}

// AllNames returns every registered workload name: the synthetic twelve
// in figure order, then the kernels in family order.
func AllNames() []string {
	out := Names()
	for _, w := range kernelWorkloads() {
		out = append(out, w.Name)
	}
	return out
}

// ByName returns the named workload from any family.
func ByName(name string) (Workload, bool) {
	w, ok := workloadIndex()[name]
	return w, ok
}

// dataBuilder lays out the .data segment as a sequence of 8-byte cells so
// generators can link structures by absolute address (the data base is
// fixed by the assembler).
type dataBuilder struct {
	words []int64
}

// addr returns the address the next emitted cell will occupy.
func (d *dataBuilder) addr() uint64 {
	return isa.DefaultDataBase + 8*uint64(len(d.words))
}

// emit appends cells and returns the address of the first.
func (d *dataBuilder) emit(vals ...int64) uint64 {
	a := d.addr()
	d.words = append(d.words, vals...)
	return a
}

// reserve appends n zero cells and returns the address of the first.
func (d *dataBuilder) reserve(n int) uint64 {
	a := d.addr()
	d.words = append(d.words, make([]int64, n)...)
	return a
}

// patch overwrites a previously emitted cell.
func (d *dataBuilder) patch(addr uint64, v int64) {
	i := (addr - isa.DefaultDataBase) / 8
	d.words[i] = v
}

// section renders the .data directive block.
func (d *dataBuilder) section() string {
	var b strings.Builder
	b.WriteString("        .data\n")
	for i := 0; i < len(d.words); i += 8 {
		end := i + 8
		if end > len(d.words) {
			end = len(d.words)
		}
		b.WriteString("        .word8 ")
		for j := i; j < end; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", d.words[j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rng returns the deterministic generator used by every workload builder,
// so the suite is reproducible run to run.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// jumpTableTargets renders a .targets annotation for case labels.
func jumpTableTargets(labels []string) string {
	return "        .targets " + strings.Join(labels, ", ") + "\n"
}

// caseLabels builds n labels with a common prefix.
func caseLabels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// sortedKeys is a tiny test/debug helper.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
