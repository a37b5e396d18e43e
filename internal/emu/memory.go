package emu

import "encoding/binary"

// pageBits/pageSize define the sparse memory page granularity.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, demand-paged byte-addressable memory. Unwritten bytes
// read as zero, matching a zeroed process image.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	// last caches the most recently used resident page (lastKey is its
	// page number): consecutive accesses mostly hit the same page, so
	// they skip the map.
	last    *[pageSize]byte
	lastKey uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*[pageSize]byte{}}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	key := addr >> pageBits
	if m.last != nil && m.lastKey == key {
		return m.last
	}
	p := m.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	m.last, m.lastKey = p, key
	return p
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Store8 stores b at addr.
func (m *Memory) Store8(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns width bytes at addr as a little-endian unsigned integer.
// width must be 1, 2, 4, or 8. An access inside one page costs one page
// lookup; one that straddles pages goes byte by byte.
func (m *Memory) Read(addr uint64, width int) uint64 {
	if off := addr & pageMask; off+uint64(width) <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch width {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(m.Load8(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low width bytes of v at addr, little-endian, with the
// same single-lookup fast path as Read.
func (m *Memory) Write(addr uint64, width int, v uint64) {
	if off := addr & pageMask; width > 0 && off+uint64(width) <= pageSize {
		p := m.page(addr, true)
		switch width {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < width; i++ {
		m.Store8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base uint64, data []byte) {
	for i, b := range data {
		m.Store8(base+uint64(i), b)
	}
}

// Footprint returns the number of resident pages, for tests and stats.
func (m *Memory) Footprint() int { return len(m.pages) }
