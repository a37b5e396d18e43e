package tracestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Reader decodes a polyflow-trace/1 stream. A Reader built with Open reads
// the ReaderAt from the start on every Load, so the same Reader can Load
// any number of times without holding the serialized bytes in memory.
type Reader struct {
	ra   io.ReaderAt
	data []byte
	size int64
}

// Open wraps a random-access source of the given size (a file, an mmap, a
// bytes.Reader over a cached artifact); every Load decodes from the start.
func Open(ra io.ReaderAt, size int64) *Reader { return &Reader{ra: ra, size: size} }

// Decode eagerly parses a complete in-memory artifact. The bytes are
// parsed in place (frame payloads are not copied), so this is the fast
// path the batched run path and the artifact cache use.
func Decode(data []byte) (*trace.Trace, *trace.Deps, error) {
	return (&Reader{data: data, size: int64(len(data))}).Load()
}

// entryCount walks the entry frames' headers — kind, count and payload
// length, skipping each payload — and returns the total entry count, so
// Load sizes its entry slice exactly on both the in-memory and the
// ReaderAt branch without reading any payload. It trusts nothing: the walk
// stops at the first header that is not a plausible entry frame (a count
// above chunkEntries, or more entries than one per 5 payload bytes, the
// smallest entry encoding), so corrupt input can never size the slice past
// size/5 entries; Load reports the corruption itself.
func (r *Reader) entryCount() int {
	var ra io.ReaderAt = r.ra
	if r.data != nil {
		ra = bytes.NewReader(r.data)
	}
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	n := 0
	for off := int64(len(magic) + 1); off < r.size; {
		k, _ := ra.ReadAt(hdr[:min(int64(len(hdr)), r.size-off)], off)
		if k == 0 || hdr[0] != kindEntries {
			break
		}
		count, c := binary.Uvarint(hdr[1:k])
		if c <= 0 {
			break
		}
		plen, l := binary.Uvarint(hdr[1+c : k])
		if l <= 0 || count > chunkEntries || plen > maxFramePayload || count*5 > plen {
			break
		}
		n += int(count)
		off += int64(1+c+l) + int64(plen) + 4
	}
	return n
}

func (r *Reader) parser() *parser {
	if r.data != nil {
		return &parser{data: r.data}
	}
	return &parser{br: bufio.NewReaderSize(io.NewSectionReader(r.ra, 0, r.size), 64<<10)}
}

// Load decodes the whole stream: entries and End, the occurrence index
// (installed into the returned Trace, so NextOccurrence skips the
// rebuild), and the memory dependences. Every next-PC delta must lead to
// the PC of the entry after it (the last one gives End), and the
// occurrence index and every stored register producer are checked exactly
// against the decoded entries; memory producers are range-checked only
// (an exact check would need ComputeDeps' store table). Register
// producers are checked, not kept: trace.RegWriters derives them again
// wherever they are read. So a successful Load returns exactly the
// entries, End and index the emulator pipeline would have produced; any
// inconsistency, truncation, or checksum failure returns an error
// wrapping ErrCorrupt.
func (r *Reader) Load() (*trace.Trace, *trace.Deps, error) {
	p := r.parser()
	if err := p.header(); err != nil {
		return nil, nil, err
	}

	const (
		stEntries = iota
		stOcc
		stDeps
	)
	stage := stEntries
	// The entry slice is by far the largest allocation; sizing it from the
	// entry frames' headers avoids both regrowth and slack.
	entries := make([]trace.Entry, 0, r.entryCount())
	var occ *occDecoder
	var deps *depDecoder
	// Chunking canonicality: Encode emits full entry frames (exactly
	// chunkEntries) except the last, and flushes occurrence/dependence
	// frames only at frameTarget, so a section's last frame is the only one
	// under the threshold. Enforcing that here means every stream that
	// decodes is exactly the one Encode would emit — the byte-identity
	// invariant FuzzTraceCodec exercises.
	prevEntryCount := uint64(chunkEntries)
	occClosed, depsClosed := false, false
	var end uint64 // the last decoded entry's next-PC: the trace's End

	for {
		kind, count, payload, err := p.frame()
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case kindEntries:
			if stage != stEntries {
				return nil, nil, corruptf("entry frame after index sections")
			}
			if count == 0 || count > chunkEntries {
				return nil, nil, corruptf("entry frame count %d out of range", count)
			}
			if prevEntryCount != chunkEntries {
				return nil, nil, corruptf("undersized entry frame is not last")
			}
			prevEntryCount = count
			lo := len(entries)
			entries = slices.Grow(entries, int(count))[:lo+int(count)]
			if end, err = decodeEntries(entries[lo:], payload, end, lo > 0); err != nil {
				return nil, nil, err
			}
		case kindOcc:
			if stage == stEntries {
				stage = stOcc
			}
			if stage != stOcc {
				return nil, nil, corruptf("occurrence frame out of order")
			}
			if occClosed {
				return nil, nil, corruptf("occurrence frame after the section's final frame")
			}
			occClosed = len(payload) < frameTarget
			if occ == nil {
				deps = newDepDecoder(entries)
				occ = newOccDecoder(entries, deps.d.MemProd)
			}
			if err := occ.frame(payload, int(count)); err != nil {
				return nil, nil, err
			}
		case kindDeps:
			if stage == stOcc {
				if !occClosed {
					return nil, nil, corruptf("occurrence section missing its final frame")
				}
				if err := occ.finish(); err != nil {
					return nil, nil, err
				}
				deps.pcs = occ.pcs
				stage = stDeps
			}
			if stage != stDeps {
				return nil, nil, corruptf("dependence frame out of order")
			}
			if depsClosed {
				return nil, nil, corruptf("dependence frame after the section's final frame")
			}
			depsClosed = len(payload) < frameTarget
			if err := deps.frame(payload, int(count)); err != nil {
				return nil, nil, err
			}
		case kindEnd:
			if stage != stDeps {
				return nil, nil, corruptf("end frame before index sections")
			}
			if !depsClosed {
				return nil, nil, corruptf("dependence section missing its final frame")
			}
			if deps.i != len(entries) {
				return nil, nil, corruptf("dependence section covers %d of %d entries", deps.i, len(entries))
			}
			if count != uint64(len(entries)) {
				return nil, nil, corruptf("end frame declares %d entries, decoded %d", count, len(entries))
			}
			if len(payload) != 0 {
				return nil, nil, corruptf("end frame carries %d payload bytes", len(payload))
			}
			if err := p.expectEOF(); err != nil {
				return nil, nil, err
			}
			if len(entries) == 0 {
				entries = nil // an empty trace round-trips as nil, like the emulator produces
			}
			t := &trace.Trace{Entries: entries, End: end}
			t.RestoreIndex(occ.pcs, occ.off, occ.backing)
			return t, &deps.d, nil
		default:
			return nil, nil, corruptf("unknown frame kind %#x", kind)
		}
	}
}

// parser is the frame-level decoder behind Load. It runs in
// one of two modes: streaming (br set, payloads read into a reused buffer)
// or in-memory (data set, payloads returned as zero-copy subslices).
type parser struct {
	br   *bufio.Reader
	data []byte
	off  int
	buf  []byte
}

// readByte reads the next stream byte; the error is io-flavored (EOF on a
// clean end), callers wrap it.
func (p *parser) readByte() (byte, error) {
	if p.data != nil {
		if p.off >= len(p.data) {
			return 0, io.EOF
		}
		b := p.data[p.off]
		p.off++
		return b, nil
	}
	return p.br.ReadByte()
}

// next returns the next n stream bytes: a zero-copy subslice in in-memory
// mode, a reused buffer in streaming mode — valid until the next call.
func (p *parser) next(n int) ([]byte, error) {
	if p.data != nil {
		if len(p.data)-p.off < n {
			return nil, io.ErrUnexpectedEOF
		}
		s := p.data[p.off : p.off+n]
		p.off += n
		return s, nil
	}
	if cap(p.buf) < n {
		p.buf = make([]byte, n)
	}
	s := p.buf[:n]
	if _, err := io.ReadFull(p.br, s); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) header() error {
	hdr, err := p.next(5)
	if err != nil {
		return corruptf("reading header: %v", err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return corruptf("bad magic %q", hdr[:4])
	}
	if hdr[4] != version {
		return corruptf("unsupported format version %d (want %d)", hdr[4], version)
	}
	return nil
}

// frame reads one kind/count/len/payload/crc record. The payload slice is
// only valid until the next frame call.
func (p *parser) frame() (kind byte, count uint64, payload []byte, err error) {
	kind, err = p.readByte()
	if err != nil {
		return 0, 0, nil, corruptf("reading frame kind: %v", err)
	}
	count, err = p.readUvarint()
	if err != nil {
		return 0, 0, nil, err
	}
	plen, err := p.readUvarint()
	if err != nil {
		return 0, 0, nil, err
	}
	if plen > maxFramePayload {
		return 0, 0, nil, corruptf("frame payload %d exceeds cap %d", plen, maxFramePayload)
	}
	payload, err = p.next(int(plen))
	if err != nil {
		return 0, 0, nil, corruptf("reading %d-byte frame payload: %v", plen, err)
	}
	// Byte-at-a-time: p.next would reuse the streaming buffer that still
	// holds the payload.
	var crc [4]byte
	for i := range crc {
		b, err := p.readByte()
		if err != nil {
			return 0, 0, nil, corruptf("reading frame checksum: %v", err)
		}
		crc[i] = b
	}
	want := uint32(crc[0]) | uint32(crc[1])<<8 | uint32(crc[2])<<16 | uint32(crc[3])<<24
	if got := crc32.Checksum(payload, crcTable); got != want {
		return 0, 0, nil, corruptf("frame checksum mismatch: %08x != %08x", got, want)
	}
	return kind, count, payload, nil
}

// readUvarint is binary.ReadUvarint plus rejection of non-minimal
// encodings, mirroring uvarintAt: frame headers too must admit exactly one
// encoding per value.
func (p *parser) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := p.readByte()
		if err != nil {
			return 0, corruptf("reading varint: %v", err)
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, corruptf("varint overflows uint64")
			}
			if b == 0 && i > 0 {
				return 0, corruptf("non-minimal varint in frame header")
			}
			return x | uint64(b)<<s, nil
		}
		if i == 9 {
			return 0, corruptf("varint overflows uint64")
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

func (p *parser) expectEOF() error {
	if _, err := p.readByte(); err != io.EOF {
		return corruptf("trailing data after end frame")
	}
	return nil
}

// The payload decoders below thread a position through free functions:
// each read takes p and pos and returns the value and the next position,
// so the decode loops keep pos in a register. Reads are bounds-checked and
// failure is sticky: a truncated payload or a malformed varint returns
// position len(p)+1, every later read stays there and returns zero, and
// the loops test for it (bad) once per item instead of once per field.

// byteAt reads one byte.
func byteAt(p []byte, pos int) (byte, int) {
	if pos < len(p) {
		return p[pos], pos + 1
	}
	return 0, len(p) + 1
}

// uvarintAt decodes a varint, rejecting (as bad) truncation, overflow past
// 64 bits and non-minimal encodings (a redundant high zero byte): the
// format admits exactly one byte sequence per value, which is what makes a
// successful decode re-encode byte-identically.
func uvarintAt(p []byte, pos int) (uint64, int) {
	var v uint64
	for s := uint(0); pos < len(p); s += 7 {
		b := p[pos]
		pos++
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			if (b == 0 && s > 0) || s > 63 || (s == 63 && b > 1) {
				break
			}
			return v, pos
		}
	}
	return 0, len(p) + 1
}

// bad reports a failed read.
func bad(p []byte, pos int) bool { return pos > len(p) }

// malformed describes a failed read inside item.
func malformed(item string) error {
	return corruptf("%s: truncated payload or malformed varint", item)
}

// trailing reports bytes left after the payload's declared items.
func trailing(section string, p []byte, pos int) error {
	if pos != len(p) {
		return corruptf("%s frame carries %d trailing bytes", section, len(p)-pos)
	}
	return nil
}

// decodeEntries parses one entry frame in place into dst, whose length is
// the frame's entry count, and returns the next-PC its last entry decodes
// to. Each entry is assembled in a local and stored whole. Each entry's PC
// must equal the next-PC decoded before it: next, from the previous frame,
// when chained, then each entry's own.
func decodeEntries(dst []trace.Entry, p []byte, next uint64, chained bool) (uint64, error) {
	pos := 0
	var prevPC, prevAddr, u uint64
	for j := range dst {
		var e trace.Entry
		var nextDelta uint64
		// The common entry — one-byte PC and next deltas, at least 24
		// bytes before the frame's end — reads its four leading bytes in
		// one load and its register tail in another.
		if len(p)-pos >= 24 && binary.LittleEndian.Uint32(p[pos:])&0x80800000 == 0 {
			w := binary.LittleEndian.Uint32(p[pos:])
			e.Flags, e.Op = byte(w), isa.Op(w>>8)
			e.PC = prevPC + uint64(unzigzag(uint64(w>>16&0x7f)))
			nextDelta = uint64(w >> 24)
			pos += 4
			if e.Flags&(trace.FlagLoad|trace.FlagStore) != 0 {
				e.MemW = p[pos]
				if u, pos = uvarintAt(p, pos+1); bad(p, pos) {
					return 0, malformed(fmt.Sprintf("entry %d", j))
				}
				e.Addr = prevAddr + uint64(unzigzag(u))
				prevAddr = e.Addr
			}
			// The tail is [dst] nsrc [src0 [src1]].
			t := binary.LittleEndian.Uint32(p[pos:])
			hasDst := uint32(e.Flags & trace.FlagHasDst) // 0 or 1
			e.Dst = isa.Reg(t) & -isa.Reg(hasDst)
			t >>= 8 * hasDst
			e.NSrc = uint8(t)
			e.Srcs = [2]isa.Reg{isa.Reg(t>>8) & -isa.Reg((e.NSrc+1)>>1), isa.Reg(t>>16) & -isa.Reg(e.NSrc>>1)}
			pos += int(hasDst) + 1 + int(e.NSrc)
		} else {
			e.Flags, pos = byteAt(p, pos)
			var op byte
			op, pos = byteAt(p, pos)
			e.Op = isa.Op(op)
			u, pos = uvarintAt(p, pos)
			e.PC = prevPC + uint64(unzigzag(u))
			nextDelta, pos = uvarintAt(p, pos)
			if e.Flags&(trace.FlagLoad|trace.FlagStore) != 0 {
				e.MemW, pos = byteAt(p, pos)
				u, pos = uvarintAt(p, pos)
				e.Addr = prevAddr + uint64(unzigzag(u))
				prevAddr = e.Addr
			}
			var r byte
			if e.Flags&trace.FlagHasDst != 0 {
				r, pos = byteAt(p, pos)
				e.Dst = isa.Reg(r)
			}
			e.NSrc, pos = byteAt(p, pos)
			for k := 0; k < min(int(e.NSrc), 2); k++ {
				r, pos = byteAt(p, pos)
				e.Srcs[k] = isa.Reg(r)
			}
			if bad(p, pos) {
				return 0, malformed(fmt.Sprintf("entry %d", j))
			}
		}
		if e.PC != next && (chained || j > 0) {
			return 0, corruptf("entry %d: PC %#x, but the entry before it retires to %#x", j, e.PC, next)
		}
		prevPC, next = e.PC, e.PC+isa.InstSize+uint64(unzigzag(nextDelta))
		switch {
		case e.Dst >= isa.NumRegs:
			return 0, corruptf("entry %d: destination register %d out of range", j, e.Dst)
		case e.NSrc > 2:
			return 0, corruptf("entry %d: source count %d exceeds 2", j, e.NSrc)
		case e.Srcs[0]|e.Srcs[1] >= isa.NumRegs:
			return 0, corruptf("entry %d: source register %d out of range", j, max(e.Srcs[0], e.Srcs[1]))
		}
		dst[j] = e
	}
	return next, trailing("entry", p, pos)
}

// occDecoder accumulates the occurrence section across its frames. Each
// list is checked as it decodes: PCs strictly ascend across frames,
// indices strictly ascend within a list, are in range, and no index is
// listed twice. Whether every index's entry really retires at its list's
// PC is checked through owner in the dependence pass, which visits the
// entries in order anyway, instead of by one random entry access per
// index. Together with the coverage check (finish) this forces the decoded
// index to be exactly canonical.
type occDecoder struct {
	entries []trace.Entry
	// backing holds every list, one index per entry across the section;
	// the list of pcs[k] is backing[off[k]:off[k+1]], the flat form
	// trace.RestoreIndex takes.
	backing []int32
	off     []int32
	// owner[i] is 1 + the position in pcs of the list holding index i;
	// zero means no list has claimed it yet. It borrows the dependence
	// output's MemProd, which the dependence pass reads and then
	// overwrites entry by entry, so the check costs no memory of its own.
	owner  []int32
	pcs    []uint64
	lastPC uint64
}

func newOccDecoder(entries []trace.Entry, owner []int32) *occDecoder {
	return &occDecoder{
		entries: entries,
		backing: make([]int32, 0, len(entries)),
		off:     []int32{0},
		owner:   owner,
	}
}

// frame parses one occurrence frame.
func (o *occDecoder) frame(p []byte, count int) error {
	pos := 0
	n := uint64(len(o.entries))
	prevPC := uint64(0) // delta state resets per frame; first PC is absolute
	for j := 0; j < count; j++ {
		var delta, cnt uint64
		delta, pos = uvarintAt(p, pos)
		pc := prevPC + delta
		cnt, pos = uvarintAt(p, pos)
		switch {
		case bad(p, pos):
			return malformed("occurrence list header")
		case j > 0 && delta == 0:
			return corruptf("occurrence PCs not strictly ascending at %#x", pc)
		case len(o.pcs) > 0 && pc <= o.lastPC:
			return corruptf("occurrence PC %#x not above previous frame's %#x", pc, o.lastPC)
		case cnt == 0:
			return corruptf("empty occurrence list for PC %#x", pc)
		case cnt > uint64(len(p)-pos) || uint64(len(o.backing))+cnt > n:
			return corruptf("occurrence list for PC %#x overflows trace", pc)
		}
		prevPC, o.lastPC = pc, pc
		o.pcs = append(o.pcs, pc)
		owner := int32(len(o.pcs))
		var ix uint64
		for k := 0; k < int(cnt); k++ {
			delta, pos = uvarintAt(p, pos)
			if k == 0 {
				ix = delta
			} else if ix+delta <= ix { // a zero delta, or one that wraps
				return corruptf("occurrence indices for PC %#x not strictly ascending", pc)
			} else {
				ix += delta
			}
			if bad(p, pos) {
				return malformed(fmt.Sprintf("occurrence list for PC %#x", pc))
			}
			if ix >= n {
				return corruptf("occurrence index %d for PC %#x out of range", ix, pc)
			}
			if o.owner[ix] != 0 {
				return corruptf("occurrence index %d listed for PC %#x and %#x", ix, o.pcs[o.owner[ix]-1], pc)
			}
			o.owner[ix] = owner
			o.backing = append(o.backing, int32(ix))
		}
		o.off = append(o.off, int32(len(o.backing)))
	}
	return trailing("occurrence", p, pos)
}

// finish checks the complete section covers every entry: with no index
// repeated, each is then claimed exactly once.
func (o *occDecoder) finish() error {
	if len(o.backing) != len(o.entries) {
		return corruptf("occurrence index covers %d of %d entries", len(o.backing), len(o.entries))
	}
	return nil
}

// depDecoder accumulates the dependence section across its frames,
// resuming at entry i. Every stored register producer must equal the one
// regs, the trace.RegWriters rule, derives, and is then dropped; memory
// producers are only range-checked. Every entry is visited exactly once,
// so it also checks that the entry retires at the PC of the occurrence
// list claiming it (occDecoder.owner, in MemProd), and gives non-loads
// their -1 memory producer.
type depDecoder struct {
	entries []trace.Entry
	pcs     []uint64 // the occurrence section's PCs, for the owner check
	d       trace.Deps
	i       int
	regs    trace.RegWriters
}

func newDepDecoder(entries []trace.Entry) *depDecoder {
	return &depDecoder{
		entries: entries,
		d:       trace.Deps{MemProd: make([]int32, len(entries))},
		regs:    trace.NewRegWriters(),
	}
}

// frame parses one dependence frame.
func (dd *depDecoder) frame(p []byte, count int) error {
	pos := 0
	var u uint64
	i := dd.i
	if count > len(dd.entries)-i {
		return corruptf("dependence section overruns %d entries", len(dd.entries))
	}
	for end := i + count; i < end; i++ {
		e := &dd.entries[i]
		if pc := dd.pcs[dd.d.MemProd[i]-1]; e.PC != pc {
			return corruptf("occurrence index %d claims PC %#x, entry has %#x", i, pc, e.PC)
		}
		want := dd.regs.Next(i, e)
		for k := 0; k < int(e.NSrc); k++ {
			u, pos = uvarintAt(p, pos)
			if prod := int64(i) + unzigzag(u); prod != int64(want[k]) {
				if bad(p, pos) {
					return malformed(fmt.Sprintf("dependences of entry %d", i))
				}
				return corruptf("entry %d: register producer %d, but %v was last written by %d", i, prod, e.Srcs[k], want[k])
			}
		}
		dd.d.MemProd[i] = -1
		if e.Flags&trace.FlagLoad != 0 {
			u, pos = uvarintAt(p, pos)
			prod := int64(i) + unzigzag(u)
			if bad(p, pos) {
				return malformed(fmt.Sprintf("dependences of entry %d", i))
			}
			if prod < -1 || prod >= int64(i) {
				return corruptf("entry %d: memory producer %d out of range", i, prod)
			}
			dd.d.MemProd[i] = int32(prod)
		}
	}
	dd.i = i
	return trailing("dependence", p, pos)
}
