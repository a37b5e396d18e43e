package trace

// PCIndex numbers PCs densely, in first-sight order, through an
// open-addressed (linear probing) hash table: the flat replacement for a
// map[uint64]T on lookup-heavy paths, where the caller keeps its values in
// a slice indexed by the dense id. slot holds id+1 so zero marks an empty
// slot and every PC value, zero included, is a valid key. The table grows
// at half load, so a lookup of an absent PC usually stops at its first
// probe.
type PCIndex struct {
	keys []uint64
	slot []int32
	pcs  []uint64 // dense id -> PC
}

// NewPCIndex returns an index sized to hold n PCs without growing.
func NewPCIndex(n int) PCIndex {
	var t PCIndex
	t.resize(n)
	return t
}

func pcHash(pc uint64, mask uint64) uint64 { return (pc * 0x9E3779B97F4A7C15) >> 32 & mask }

// Lookup returns pc's id, or -1 when pc has none.
func (t *PCIndex) Lookup(pc uint64) int32 {
	if len(t.keys) == 0 {
		return -1
	}
	mask := uint64(len(t.keys) - 1)
	for i := pcHash(pc, mask); ; i = (i + 1) & mask {
		s := t.slot[i]
		if s == 0 {
			return -1
		}
		if t.keys[i] == pc {
			return s - 1
		}
	}
}

// ID returns pc's id, assigning the next one on first sight.
func (t *PCIndex) ID(pc uint64) int32 {
	if 2*len(t.pcs)+2 > len(t.keys) {
		t.resize(len(t.pcs) + 1)
	}
	mask := uint64(len(t.keys) - 1)
	for i := pcHash(pc, mask); ; i = (i + 1) & mask {
		switch {
		case t.slot[i] == 0:
			id := int32(len(t.pcs))
			t.keys[i], t.slot[i] = pc, id+1
			t.pcs = append(t.pcs, pc)
			return id
		case t.keys[i] == pc:
			return t.slot[i] - 1
		}
	}
}

// Len returns the number of PCs with an id.
func (t *PCIndex) Len() int { return len(t.pcs) }

// PCs returns the PCs in id order. The slice must not be modified.
func (t *PCIndex) PCs() []uint64 { return t.pcs }

// resize rebuilds the table with room for n PCs at under half load.
func (t *PCIndex) resize(n int) {
	size := 16
	for size < 2*n+2 {
		size <<= 1
	}
	t.keys, t.slot = make([]uint64, size), make([]int32, size)
	mask := uint64(size - 1)
	for id, pc := range t.pcs {
		i := pcHash(pc, mask)
		for t.slot[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.slot[i] = pc, int32(id)+1
	}
}
