// Package cachesim models the paper's cache hierarchy: set-associative,
// LRU-replaced L1 instruction and data caches backed by a shared L2.
// Accesses return the additional latency beyond the pipeline's base access
// time: 0 on an L1 hit, the L1 miss latency on an L2 hit, and the sum of
// both miss latencies on an L2 miss.
package cachesim

// Config describes one cache level.
type Config struct {
	SizeBytes   int
	Assoc       int
	LineBytes   int
	MissLatency int // cycles added when this level misses
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64
}

// Cache is one level of set-associative cache with true-LRU replacement.
type Cache struct {
	cfg      Config
	lines    []line // set s is lines[s*Assoc : (s+1)*Assoc]
	setMask  uint64
	lineBits uint
	tick     uint64
	next     *Cache // lower level, nil for last-level

	// Stats
	Accesses uint64
	Misses   uint64
}

// New builds a cache level on top of next (which may be nil).
func New(cfg Config, next *Cache) *Cache {
	numSets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if numSets < 1 {
		numSets = 1
	}
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, numSets*cfg.Assoc),
		setMask: uint64(numSets - 1),
		next:    next,
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

// LineBytes returns the line size of this level.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// WorstLatency returns the extra latency of an access that misses this
// level and every level below it: the largest value Access can return.
func (c *Cache) WorstLatency() int {
	lat := 0
	for l := c; l != nil; l = l.next {
		lat += l.cfg.MissLatency
	}
	return lat
}

// set returns the ways of the set that holds tag.
func (c *Cache) set(tag uint64) []line {
	a := c.cfg.Assoc
	s := int(tag&c.setMask) * a
	return c.lines[s : s+a : s+a]
}

// LineOf returns the line-aligned address containing addr.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

// Access looks up addr, filling on miss, and returns the extra latency
// (0 for a hit at this level).
func (c *Cache) Access(addr uint64) int {
	c.tick++
	c.Accesses++
	tag := addr >> c.lineBits
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			return 0
		}
	}
	// Miss: fill LRU way.
	c.Misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.tick}
	lat := c.cfg.MissLatency
	if c.next != nil {
		lat += c.next.Access(addr)
	}
	return lat
}

// Reset invalidates every line and clears the statistics, returning the
// cache to its just-built state so pooled hierarchies can be reused across
// runs.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.Accesses, c.Misses = 0, 0
}

// Probe reports whether addr currently hits, without updating state.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineBits
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Hierarchy bundles the paper's three caches (Figure 8): split L1I/L1D over
// a shared L2.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// Reset restores every level to its just-built state.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}

// DefaultHierarchy returns the Figure 8 configuration: L1I 8 KB 2-way 128 B
// lines / 10-cycle miss; L1D 16 KB 4-way 64 B lines / 10-cycle miss; shared
// L2 512 KB 8-way 128 B lines / 100-cycle miss.
func DefaultHierarchy() *Hierarchy {
	l2 := New(Config{SizeBytes: 512 << 10, Assoc: 8, LineBytes: 128, MissLatency: 100}, nil)
	return &Hierarchy{
		L1I: New(Config{SizeBytes: 8 << 10, Assoc: 2, LineBytes: 128, MissLatency: 10}, l2),
		L1D: New(Config{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, MissLatency: 10}, l2),
		L2:  l2,
	}
}
