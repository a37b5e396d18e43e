package trace

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// mkEntry helpers build small synthetic traces directly.
func alu(pc uint64, dst isa.Reg, srcs ...isa.Reg) Entry {
	e := Entry{PC: pc, Op: isa.OpADD, Dst: dst, Flags: FlagHasDst}
	for i, s := range srcs {
		e.Srcs[i] = s
	}
	e.NSrc = uint8(len(srcs))
	return e
}

func load(pc, addr uint64, w uint8, dst isa.Reg, base isa.Reg) Entry {
	return Entry{PC: pc, Op: isa.OpLD, Addr: addr, MemW: w, Dst: dst,
		Srcs: [2]isa.Reg{base}, NSrc: 1, Flags: FlagHasDst | FlagLoad}
}

func store(pc, addr uint64, w uint8, val, base isa.Reg) Entry {
	return Entry{PC: pc, Op: isa.OpSD, Addr: addr, MemW: w,
		Srcs: [2]isa.Reg{base, val}, NSrc: 2, Flags: FlagStore}
}

func branch(pc uint64, taken bool) Entry {
	e := Entry{PC: pc, Op: isa.OpBNE, Flags: FlagCondBranch}
	if taken {
		e.Flags |= FlagTaken
	}
	return e
}

// TestEntrySize pins the entry layout: two 8-byte words and seven bytes,
// with no next-PC field (the next entry holds it).
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Fatalf("sizeof(Entry) = %d, want 24", got)
	}
}

func TestFlags(t *testing.T) {
	e := Entry{Flags: FlagHasDst | FlagLoad | FlagTaken | FlagCondBranch | FlagCall | FlagReturn | FlagIndirect}
	if !e.HasDst() || !e.IsLoad() || !e.Taken() || !e.IsCondBranch() ||
		!e.IsCall() || !e.IsReturn() || !e.IsIndirect() {
		t.Fatalf("flag accessors wrong")
	}
	var zero Entry
	if zero.IsStore() {
		t.Fatalf("zero entry claims to store")
	}
}

func TestNextOccurrence(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		{PC: 0x100}, {PC: 0x104}, {PC: 0x100}, {PC: 0x108}, {PC: 0x100},
	}}
	if got := tr.NextOccurrence(0x100, 0); got != 2 {
		t.Fatalf("NextOccurrence = %d, want 2", got)
	}
	if got := tr.NextOccurrence(0x100, 2); got != 4 {
		t.Fatalf("NextOccurrence = %d, want 4", got)
	}
	if got := tr.NextOccurrence(0x100, 4); got != -1 {
		t.Fatalf("NextOccurrence past last = %d, want -1", got)
	}
	if got := tr.NextOccurrence(0x999, 0); got != -1 {
		t.Fatalf("NextOccurrence of absent PC = %d, want -1", got)
	}
	// after=-1 includes index 0.
	if got := tr.NextOccurrence(0x100, -1); got != 0 {
		t.Fatalf("NextOccurrence from -1 = %d, want 0", got)
	}
	if occ := tr.Occurrences(0x100); len(occ) != 3 {
		t.Fatalf("Occurrences = %v", occ)
	}
}

func TestRegisterDeps(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		alu(0x100, isa.T0),                 // 0: writes t0
		alu(0x104, isa.T1, isa.T0),         // 1: reads t0 (from 0)
		alu(0x108, isa.T0, isa.T1),         // 2: reads t1 (from 1), rewrites t0
		alu(0x10c, isa.T2, isa.T0, isa.T1), // 3: t0 from 2, t1 from 1
		alu(0x110, isa.T3, isa.T4),         // 4: t4 never written -> -1
	}}
	d := tr.ComputeDeps()
	if d.RegProd[1][0] != 0 {
		t.Fatalf("dep 1.t0 = %d, want 0", d.RegProd[1][0])
	}
	if d.RegProd[2][0] != 1 {
		t.Fatalf("dep 2.t1 = %d, want 1", d.RegProd[2][0])
	}
	if d.RegProd[3][0] != 2 || d.RegProd[3][1] != 1 {
		t.Fatalf("dep 3 = %v, want [2 1]", d.RegProd[3])
	}
	if d.RegProd[4][0] != -1 {
		t.Fatalf("dep on initial state must be -1")
	}
}

func TestMemoryDeps(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		store(0x100, 0x1000, 8, isa.T0, isa.SP), // 0
		load(0x104, 0x1000, 8, isa.T1, isa.SP),  // 1: exact overlap -> 0
		load(0x108, 0x1004, 4, isa.T2, isa.SP),  // 2: partial overlap -> 0
		load(0x10c, 0x1008, 8, isa.T3, isa.SP),  // 3: adjacent, no overlap -> -1
		store(0x110, 0x1004, 1, isa.T0, isa.SP), // 4: overwrites one byte
		load(0x114, 0x1000, 8, isa.T4, isa.SP),  // 5: youngest overlapping store = 4
	}}
	d := tr.ComputeDeps()
	if d.MemProd[1] != 0 || d.MemProd[2] != 0 {
		t.Fatalf("overlapping loads wrong: %d %d", d.MemProd[1], d.MemProd[2])
	}
	if d.MemProd[3] != -1 {
		t.Fatalf("non-overlapping load = %d, want -1", d.MemProd[3])
	}
	if d.MemProd[5] != 4 {
		t.Fatalf("youngest overlapping store = %d, want 4", d.MemProd[5])
	}
	// Stores have no MemProd.
	if d.MemProd[0] != -1 || d.MemProd[4] != -1 {
		t.Fatalf("stores must have MemProd -1")
	}
}

func TestBranchProfiles(t *testing.T) {
	tr := &Trace{Entries: []Entry{
		branch(0x100, true),
		branch(0x100, false),
		branch(0x100, true),
		branch(0x104, false),
	}}
	p := tr.BranchProfiles()
	if p[0x100].Executed != 3 || p[0x100].Taken != 2 {
		t.Fatalf("profile 0x100 = %+v", p[0x100])
	}
	if p[0x104].Executed != 1 || p[0x104].Taken != 0 {
		t.Fatalf("profile 0x104 = %+v", p[0x104])
	}
}

func TestIndirectTargets(t *testing.T) {
	// Each jump's target is the entry retired after it; the final
	// return's is End.
	jr := Entry{PC: 0x100, Op: isa.OpJR, Flags: FlagIndirect}
	ret := Entry{PC: 0x104, Op: isa.OpJR, Flags: FlagIndirect | FlagReturn}
	tr := &Trace{Entries: []Entry{jr, {PC: 0x300}, jr, {PC: 0x200}, jr, {PC: 0x300}, ret}, End: 0x400}
	ts := tr.IndirectTargets()
	if got := ts[0x100]; len(got) != 2 || got[0] != 0x200 || got[1] != 0x300 {
		t.Fatalf("indirect targets = %v", got)
	}
	// Returns are indirect too and legitimately recorded; the CFG builder
	// ignores them, but the profile keeps them.
	if got, ok := ts[0x104]; !ok || len(got) != 1 || got[0] != 0x400 {
		t.Fatalf("return targets = %v, want [0x400]", got)
	}
}

// TestMemoryDepsMatchesByteMapReference: the word-keyed open-addressed table
// behind ComputeDeps must agree exactly with a naive per-byte map over a
// randomized mix of widths, overlaps, and word-straddling accesses.
func TestMemoryDepsMatchesByteMapReference(t *testing.T) {
	// Deterministic xorshift so the test is reproducible.
	state := uint64(0x9E3779B97F4A7C15)
	rnd := func(n uint64) uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state % n
	}
	widths := []uint8{1, 2, 4, 8}
	var entries []Entry
	for i := 0; i < 20000; i++ {
		// Addresses cluster in a 1KB region with odd offsets so accesses
		// frequently straddle 8-byte word boundaries and partially overlap.
		addr := 0x100000 + rnd(1024)
		w := widths[rnd(4)]
		if rnd(2) == 0 {
			entries = append(entries, store(0x100, addr, w, isa.T0, isa.SP))
		} else {
			entries = append(entries, load(0x104, addr, w, isa.T1, isa.SP))
		}
	}
	tr := &Trace{Entries: entries}
	d := tr.ComputeDeps()

	lastByte := map[uint64]int32{} // reference: last store index per byte
	for i := range entries {
		e := &entries[i]
		if e.IsLoad() {
			want := int32(-1)
			for b := e.Addr; b < e.Addr+uint64(e.MemW); b++ {
				if v, ok := lastByte[b]; ok && v > want {
					want = v
				}
			}
			if d.MemProd[i] != want {
				t.Fatalf("entry %d (addr %#x width %d): MemProd=%d, reference=%d",
					i, e.Addr, e.MemW, d.MemProd[i], want)
			}
		}
		if e.IsStore() {
			for b := e.Addr; b < e.Addr+uint64(e.MemW); b++ {
				lastByte[b] = int32(i)
			}
		}
	}
}

// TestOccurrenceIndexExact: the built index stores each PC's list in one
// shared exact-size backing array (cap == len, lengths summing to Len()),
// lists every index exactly once in ascending order under its own PC, and
// NextOccurrence agrees with a brute-force scan.
func TestOccurrenceIndexExact(t *testing.T) {
	const n, pcs = 5000, 37
	tr := &Trace{Entries: make([]Entry, n)}
	x := uint32(2463534242)
	for i := range tr.Entries {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		tr.Entries[i].PC = 0x400000 + 4*uint64(x%pcs)
	}
	total := 0
	for p := uint64(0); p <= pcs; p++ { // one PC past the range never retires
		pc := 0x400000 + 4*p
		occ := tr.Occurrences(pc)
		if cap(occ) != len(occ) {
			t.Errorf("PC %#x: cap %d != len %d", pc, cap(occ), len(occ))
		}
		total += len(occ)
		for k, ix := range occ {
			if tr.Entries[ix].PC != pc || (k > 0 && ix <= occ[k-1]) {
				t.Fatalf("PC %#x: bad list %v", pc, occ)
			}
		}
		for after := -1; after < n; after += 7 {
			want := -1
			for i := after + 1; i < n; i++ {
				if tr.Entries[i].PC == pc {
					want = i
					break
				}
			}
			if got := tr.NextOccurrence(pc, after); got != want {
				t.Fatalf("NextOccurrence(%#x, %d) = %d, want %d", pc, after, got, want)
			}
		}
	}
	if total != tr.Len() {
		t.Errorf("occurrence lists hold %d indices, trace has %d entries", total, tr.Len())
	}
}

// TestPCIndex: ids are dense in first-sight order across growth, PC 0
// included, lookups of absent PCs (and on the zero value) miss, and
// NewPCIndex(n) holds n PCs without growing.
func TestPCIndex(t *testing.T) {
	var zero PCIndex
	if zero.Lookup(0) != -1 || zero.Lookup(0x400000) != -1 {
		t.Fatal("zero-value index finds a PC")
	}
	var ix PCIndex
	const n = 5000
	pc := func(k int) uint64 { return uint64(k) * 4 } // k = 0 gives PC 0
	for k := 0; k < n; k++ {
		if id := ix.ID(pc(k)); id != int32(k) {
			t.Fatalf("ID(%#x) = %d, want %d", pc(k), id, k)
		}
		if id := ix.ID(pc(k / 2)); id != int32(k/2) {
			t.Fatalf("repeat ID(%#x) = %d, want %d", pc(k/2), id, k/2)
		}
	}
	for k := 0; k < n; k++ {
		if id := ix.Lookup(pc(k)); id != int32(k) {
			t.Fatalf("Lookup(%#x) = %d, want %d", pc(k), id, k)
		}
		if id := ix.Lookup(pc(k) + 1); id != -1 {
			t.Fatalf("Lookup of absent %#x = %d", pc(k)+1, id)
		}
	}
	if ix.Len() != n || len(ix.PCs()) != n || ix.PCs()[7] != pc(7) {
		t.Fatalf("Len %d, PCs %d entries", ix.Len(), len(ix.PCs()))
	}
	sized := NewPCIndex(n)
	keys := len(sized.keys)
	for k := 0; k < n; k++ {
		sized.ID(pc(k))
	}
	if len(sized.keys) != keys {
		t.Errorf("NewPCIndex(%d) grew from %d to %d slots", n, keys, len(sized.keys))
	}
}

// TestOccurrenceIndexConcurrent: goroutines racing to build, restore and
// read one trace's index all see the same lists, and exactly one index is
// installed (run under -race).
func TestOccurrenceIndexConcurrent(t *testing.T) {
	const n, pcs = 4000, 29
	entries := make([]Entry, n)
	for i := range entries {
		entries[i].PC = 0x400000 + 4*uint64((i*7)%pcs)
	}
	ref := &Trace{Entries: entries}
	refPCs, refOff, refBacking := ref.OccurrenceIndex()

	tr := &Trace{Entries: entries}
	var wg sync.WaitGroup
	var installed atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%4 == 0 && tr.RestoreIndex(refPCs, refOff, refBacking) {
				installed.Add(1)
			}
			for p := uint64(0); p < pcs; p++ {
				pc := 0x400000 + 4*p
				if got, want := tr.Occurrences(pc), ref.Occurrences(pc); !reflect.DeepEqual(got, want) {
					t.Errorf("PC %#x: %v, want %v", pc, got, want)
				}
			}
			if pcs, _, backing := tr.OccurrenceIndex(); len(pcs) != len(refPCs) || len(backing) != n {
				t.Errorf("index holds %d PCs and %d entries, want %d and %d", len(pcs), len(backing), len(refPCs), n)
			}
		}()
	}
	wg.Wait()
	if installed.Load() > 1 {
		t.Errorf("%d restores installed an index", installed.Load())
	}
	if tr.RestoreIndex(refPCs, refOff, refBacking) {
		t.Error("restore after first use installed an index")
	}
}
