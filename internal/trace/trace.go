// Package trace defines the retired dynamic instruction trace produced by
// the functional emulator, along with the derived indexes the timing model
// and the Task Spawn Unit consume: per-PC occurrence lists (the paper's
// spawn unit "uses a trace to ensure that tasks are not spawned too far into
// the future") and register/memory last-writer dependence information (the
// idealized stand-in for the compiler-generated dependence hints stored in
// the paper's hint cache).
package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Entry is one retired instruction. The PC retired after it is the next
// entry's PC (Trace.NextPC), so an entry does not repeat it.
type Entry struct {
	PC    uint64
	Addr  uint64 // effective address for loads/stores
	Op    isa.Op
	Dst   isa.Reg // valid when HasDst
	Srcs  [2]isa.Reg
	NSrc  uint8
	MemW  uint8 // access width in bytes; 0 for non-memory ops
	Flags uint8
}

// Entry flag bits.
const (
	FlagHasDst uint8 = 1 << iota
	FlagLoad
	FlagStore
	FlagCondBranch
	FlagTaken
	FlagCall
	FlagReturn
	FlagIndirect
)

// HasDst reports whether the entry writes a register.
func (e *Entry) HasDst() bool { return e.Flags&FlagHasDst != 0 }

// IsLoad reports whether the entry is a load.
func (e *Entry) IsLoad() bool { return e.Flags&FlagLoad != 0 }

// IsStore reports whether the entry is a store.
func (e *Entry) IsStore() bool { return e.Flags&FlagStore != 0 }

// IsCondBranch reports whether the entry is a conditional branch.
func (e *Entry) IsCondBranch() bool { return e.Flags&FlagCondBranch != 0 }

// Taken reports the resolved direction of a conditional branch (meaningful
// only when IsCondBranch).
func (e *Entry) Taken() bool { return e.Flags&FlagTaken != 0 }

// IsCall reports whether the entry is a procedure call.
func (e *Entry) IsCall() bool { return e.Flags&FlagCall != 0 }

// IsReturn reports whether the entry is a procedure return (jr $ra).
func (e *Entry) IsReturn() bool { return e.Flags&FlagReturn != 0 }

// IsIndirect reports whether the entry is an indirect jump.
func (e *Entry) IsIndirect() bool { return e.Flags&FlagIndirect != 0 }

// Trace is the full retired instruction stream of one program run.
type Trace struct {
	Entries []Entry
	// End is the PC after the last entry: the halting PC of a run that
	// halted, otherwise the PC of the instruction that did not retire.
	End uint64

	// occ is the per-PC occurrence index, installed once (built on first
	// use, or restored from a trace-store artifact) and never replaced.
	occ   atomic.Pointer[occIndex]
	occMu sync.Mutex
}

// occIndex is the per-PC occurrence index, held without Go maps: ids
// numbers the distinct PCs, and the ascending occurrence list of the PC
// with id k is backing[off[k]:off[k+1]]. backing holds one int32 per trace
// entry.
type occIndex struct {
	ids     PCIndex
	off     []int32
	backing []int32
}

// list returns pc's occurrence list (cap == len), nil when pc never
// retires.
func (o *occIndex) list(pc uint64) []int32 {
	id := o.ids.Lookup(pc)
	if id < 0 {
		return nil
	}
	lo, hi := o.off[id], o.off[id+1]
	return o.backing[lo:hi:hi]
}

// buildOccIndex is the repository's one occurrence-list builder. A
// counting pass numbers the distinct PCs in first-retirement order and
// sizes their lists, then a fill pass writes every list into one
// exact-size backing array. Straight-line code retires PCs in the order it
// first numbered them, so both passes try the id after the previous
// entry's before probing the hash table.
func buildOccIndex(entries []Entry) *occIndex {
	o := &occIndex{}
	var next []int32 // per PC id: its count, then its next free position
	id := int32(-1)
	for i := range entries {
		pc := entries[i].PC
		if pcs := o.ids.PCs(); int(id+1) < len(pcs) && pcs[id+1] == pc {
			id++
		} else if id = o.ids.ID(pc); int(id) == len(next) {
			next = append(next, 0)
		}
		next[id]++
	}
	o.off = make([]int32, len(next)+1)
	for id, c := range next {
		o.off[id+1] = o.off[id] + c
	}
	copy(next, o.off)
	o.backing = make([]int32, len(entries))
	pcs := o.ids.PCs()
	id = -1
	for i := range entries {
		pc := entries[i].PC
		if int(id+1) < len(pcs) && pcs[id+1] == pc {
			id++
		} else {
			id = o.ids.Lookup(pc)
		}
		o.backing[next[id]] = int32(i)
		next[id]++
	}
	return o
}

// Len returns the number of retired instructions.
func (t *Trace) Len() int { return len(t.Entries) }

// NextPC returns the PC retired after entry i: the next entry's PC, or End
// after the last entry.
func (t *Trace) NextPC(i int) uint64 {
	if i+1 < len(t.Entries) {
		return t.Entries[i+1].PC
	}
	return t.End
}

// index returns the installed occurrence index, building it on first use
// (goroutine-safe: experiment sweeps simulate one trace concurrently). It
// stays small enough to inline into the simulator's NextOccurrence calls.
func (t *Trace) index() *occIndex {
	if o := t.occ.Load(); o != nil {
		return o
	}
	return t.buildIndex()
}

// buildIndex is index's slow path, kept out of line.
//
//go:noinline
func (t *Trace) buildIndex() *occIndex {
	return t.install(func() *occIndex { return buildOccIndex(t.Entries) })
}

// install stores build's index unless one is already installed, and
// returns the installed one.
func (t *Trace) install(build func() *occIndex) *occIndex {
	t.occMu.Lock()
	defer t.occMu.Unlock()
	if o := t.occ.Load(); o != nil {
		return o
	}
	o := build()
	t.occ.Store(o)
	return o
}

// RestoreIndex installs a precomputed per-PC occurrence index, as decoded
// from a trace-store artifact (internal/tracestore), so a replayed trace
// skips the O(n) rebuild and a re-encode writes the index it was decoded
// from. The index comes in the flat form OccurrenceIndex returns: pcs
// lists the distinct PCs, and the ascending occurrence list of pcs[k] is
// backing[off[k]:off[k+1]]. The caller must pass exactly the lists the
// trace's Entries imply, in any PC order (the decoder passes ascending
// PCs). It reports whether the index was installed; false means one was
// already built (or restored) and the arguments were discarded.
func (t *Trace) RestoreIndex(pcs []uint64, off, backing []int32) bool {
	installed := false
	t.install(func() *occIndex {
		ids := NewPCIndex(len(pcs))
		for _, pc := range pcs {
			ids.ID(pc)
		}
		installed = true
		return &occIndex{ids: ids, off: off, backing: backing}
	})
	return installed
}

// OccurrenceIndex returns the per-PC occurrence index in flat form: the
// ascending occurrence list of pcs[k] is backing[off[k]:off[k+1]]. PCs
// come in the index's own order — as restored (ascending, from a decoded
// artifact) or as built (first-retirement order). A trace with no index
// installed yet gets one built for this call only, not installed: a trace
// that is only serialized does not keep 4 bytes per entry that nothing
// reads again. The slices must not be modified.
func (t *Trace) OccurrenceIndex() (pcs []uint64, off, backing []int32) {
	o := t.occ.Load()
	if o == nil {
		o = buildOccIndex(t.Entries)
	}
	return o.ids.PCs(), o.off, o.backing
}

// NextOccurrence returns the smallest trace index > after at which pc
// retires, or -1 when pc never retires again. This is the oracle the Task
// Spawn Unit uses to place a spawned task on the correct path.
func (t *Trace) NextOccurrence(pc uint64, after int) int {
	occ := t.index().list(pc)
	lo, hi := 0, len(occ)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(occ[mid]) > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(occ) {
		return -1
	}
	return int(occ[lo])
}

// Occurrences returns every trace index at which pc retires.
func (t *Trace) Occurrences(pc uint64) []int32 {
	return t.index().list(pc)
}

// IndirectTargets collects the observed dynamic targets of every indirect
// jump, keyed by jump PC. The static CFG uses this as profile information
// to resolve jr/jalr successors, exactly as the paper's profile-driven
// postdominator analysis does.
func (t *Trace) IndirectTargets() map[uint64][]uint64 {
	seen := map[uint64]map[uint64]bool{}
	for i := range t.Entries {
		e := &t.Entries[i]
		if !e.IsIndirect() {
			continue
		}
		m := seen[e.PC]
		if m == nil {
			m = map[uint64]bool{}
			seen[e.PC] = m
		}
		m[t.NextPC(i)] = true
	}
	out := make(map[uint64][]uint64, len(seen))
	for pc, m := range seen {
		ts := make([]uint64, 0, len(m))
		for t := range m {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		out[pc] = ts
	}
	return out
}

// BranchProfile summarizes one static conditional branch's dynamic behaviour.
type BranchProfile struct {
	Executed int
	Taken    int
}

// BranchProfiles aggregates per-PC conditional branch statistics.
func (t *Trace) BranchProfiles() map[uint64]*BranchProfile {
	out := map[uint64]*BranchProfile{}
	for i := range t.Entries {
		e := &t.Entries[i]
		if !e.IsCondBranch() {
			continue
		}
		p := out[e.PC]
		if p == nil {
			p = &BranchProfile{}
			out[e.PC] = p
		}
		p.Executed++
		if e.Taken() {
			p.Taken++
		}
	}
	return out
}

// Deps holds, for every trace entry, the producing trace index of each of
// its register sources and (for loads) of the most recent overlapping store.
// An index of -1 means the value predates the trace (initial state).
type Deps struct {
	// RegProd[i][k] is the index of the entry that produced entry i's k-th
	// register source (k < NSrc).
	RegProd [][2]int32
	// MemProd[i] is the index of the most recent prior store overlapping a
	// load's bytes, or -1.
	MemProd []int32
}

// ComputeDeps performs the last-writer scan. Memory dependences are tracked
// at byte granularity, so partially overlapping accesses are handled
// exactly; the byte table is keyed by 8-byte-aligned words (one probe per
// word spanned instead of one per byte) in an open-addressed flat map.
func (t *Trace) ComputeDeps() *Deps {
	n := len(t.Entries)
	d := &Deps{
		RegProd: make([][2]int32, n),
		MemProd: make([]int32, n),
	}
	var lastReg [isa.NumRegs]int32
	for r := range lastReg {
		lastReg[r] = -1
	}
	ws := newWordStores(4096)
	for i := range t.Entries {
		e := &t.Entries[i]
		for k := 0; k < int(e.NSrc); k++ {
			d.RegProd[i][k] = lastReg[e.Srcs[k]]
		}
		d.MemProd[i] = -1
		if e.IsLoad() {
			d.MemProd[i] = ws.lastOverlapping(e.Addr, uint64(e.MemW))
		}
		if e.IsStore() {
			ws.record(e.Addr, uint64(e.MemW), int32(i))
		}
		if e.HasDst() {
			lastReg[e.Dst] = int32(i)
		}
	}
	return d
}

// wordStores is the last-store-per-byte table behind ComputeDeps: an
// open-addressed (linear probing) hash map from 8-byte-aligned word to the
// per-byte indices of the most recent stores covering that word. Keys are
// word+1 so the zero key can mark empty slots.
type wordStores struct {
	keys []uint64
	vals [][8]int32
	used int
}

func newWordStores(capacity int) *wordStores {
	// Round up to a power of two.
	c := 16
	for c < capacity {
		c <<= 1
	}
	return &wordStores{keys: make([]uint64, c), vals: make([][8]int32, c)}
}

func (w *wordStores) slotOf(key uint64) int {
	mask := uint64(len(w.keys) - 1)
	i := (key * 0x9E3779B97F4A7C15) >> 32 & mask
	for {
		switch w.keys[i] {
		case key:
			return int(i)
		case 0:
			return -1
		}
		i = (i + 1) & mask
	}
}

// ensureSlot returns the slot for key, inserting an all-clear entry (and
// growing the table) if absent.
func (w *wordStores) ensureSlot(key uint64) int {
	if w.used*4 >= len(w.keys)*3 {
		w.grow()
	}
	mask := uint64(len(w.keys) - 1)
	i := (key * 0x9E3779B97F4A7C15) >> 32 & mask
	for w.keys[i] != 0 {
		if w.keys[i] == key {
			return int(i)
		}
		i = (i + 1) & mask
	}
	w.keys[i] = key
	w.vals[i] = [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}
	w.used++
	return int(i)
}

func (w *wordStores) grow() {
	oldKeys, oldVals := w.keys, w.vals
	w.keys = make([]uint64, 2*len(oldKeys))
	w.vals = make([][8]int32, 2*len(oldVals))
	w.used = 0
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		s := w.ensureSlot(k)
		w.vals[s] = oldVals[i]
	}
}

// record marks bytes [addr, addr+width) as last written by store index idx.
func (w *wordStores) record(addr, width uint64, idx int32) {
	if width == 0 {
		return
	}
	for word := addr >> 3; word <= (addr+width-1)>>3; word++ {
		s := w.ensureSlot(word + 1)
		lo, hi := byteSpan(word, addr, width)
		for b := lo; b < hi; b++ {
			w.vals[s][b] = idx
		}
	}
}

// lastOverlapping returns the highest store index covering any byte of
// [addr, addr+width), or -1.
func (w *wordStores) lastOverlapping(addr, width uint64) int32 {
	prod := int32(-1)
	if width == 0 {
		return prod
	}
	for word := addr >> 3; word <= (addr+width-1)>>3; word++ {
		s := w.slotOf(word + 1)
		if s < 0 {
			continue
		}
		lo, hi := byteSpan(word, addr, width)
		for b := lo; b < hi; b++ {
			if v := w.vals[s][b]; v > prod {
				prod = v
			}
		}
	}
	return prod
}

// byteSpan clips the access [addr, addr+width) to word's 8 bytes, returning
// in-word byte offsets.
func byteSpan(word, addr, width uint64) (lo, hi uint64) {
	base := word << 3
	lo, hi = 0, 8
	if addr > base {
		lo = addr - base
	}
	if end := addr + width; end < base+8 {
		hi = end - base
	}
	return lo, hi
}
