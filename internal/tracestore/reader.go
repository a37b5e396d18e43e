package tracestore

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Reader decodes a polyflow-trace/1 stream. A Reader built with NewReader
// consumes its io.Reader once; one built with Open reads the ReaderAt from
// the start on every Load, so the same Reader can Load any number of times
// without holding the serialized bytes in memory.
type Reader struct {
	r    io.Reader
	ra   io.ReaderAt
	data []byte
	size int64
	used bool
}

// NewReader wraps a sequential stream. The stream is consumed by the first
// Load.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Open wraps a random-access source of the given size (a file, an mmap, a
// bytes.Reader over a cached artifact); every Load decodes from the start.
func Open(ra io.ReaderAt, size int64) *Reader { return &Reader{ra: ra, size: size} }

// Decode eagerly parses a complete in-memory artifact. The bytes are
// parsed in place (frame payloads are not copied), so this is the fast
// path the batched run path and the artifact cache use.
func Decode(data []byte) (*trace.Trace, *trace.Deps, error) {
	return (&Reader{data: data, size: int64(len(data))}).Load()
}

func (r *Reader) parser() (*parser, error) {
	if r.data != nil {
		return &parser{data: r.data}, nil
	}
	if r.ra != nil {
		return &parser{br: bufio.NewReaderSize(io.NewSectionReader(r.ra, 0, r.size), 64<<10)}, nil
	}
	if r.used {
		return nil, fmt.Errorf("tracestore: sequential Reader already consumed (use Open for repeatable access)")
	}
	r.used = true
	return &parser{br: bufio.NewReaderSize(r.r, 64<<10)}, nil
}

// Load decodes the whole stream: entries, the occurrence index (installed
// into the returned Trace, so NextOccurrence skips the rebuild), and the
// dependence information. Both indexes are cross-validated against the
// decoded entries, so a successful Load returns exactly what the emulator
// pipeline would have produced; any inconsistency, truncation, or checksum
// failure returns an error wrapping ErrCorrupt.
func (r *Reader) Load() (*trace.Trace, *trace.Deps, error) {
	p, err := r.parser()
	if err != nil {
		return nil, nil, err
	}
	if err := p.header(); err != nil {
		return nil, nil, err
	}

	const (
		stEntries = iota
		stOcc
		stDeps
	)
	stage := stEntries
	// The stream size bounds the entry count (each entry encodes to at
	// least 5 bytes), so a size-derived capacity avoids regrowing what is
	// by far the largest allocation. Unknown size (NewReader) degrades to
	// plain append growth.
	entries := make([]trace.Entry, 0, int(r.size/8))
	occ := map[uint64][]int32{}
	var occBacking []int32
	occTotal := 0
	var lastPC uint64
	havePC := false
	var deps *trace.Deps
	depi := 0
	// Chunking canonicality: the writer emits full entry frames (exactly
	// chunkEntries) except the last, and flushes occurrence/dependence
	// frames only at frameTarget, so a section's last frame is the only one
	// under the threshold. Enforcing that here means every stream that
	// decodes is exactly the one the writer would emit — the byte-identity
	// invariant FuzzTraceCodec exercises.
	prevEntryCount := uint64(chunkEntries)
	occClosed, depsClosed := false, false

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
			if entries, err = decodeEntries(entries, payload, int(count)); err != nil {
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
			if occBacking == nil {
				// Exactly one index per entry across the whole section, so
				// one backing array serves every per-PC list.
				occBacking = make([]int32, 0, len(entries))
			}
			if err := decodeOcc(payload, int(count), entries, occ, &occBacking, &lastPC, &havePC, &occTotal); err != nil {
				return nil, nil, err
			}
		case kindDeps:
			if stage == stOcc {
				if !occClosed {
					return nil, nil, corruptf("occurrence section missing its final frame")
				}
				if occTotal != len(entries) {
					return nil, nil, corruptf("occurrence index covers %d of %d entries", occTotal, len(entries))
				}
				stage = stDeps
				deps = &trace.Deps{
					RegProd: make([][2]int32, len(entries)),
					MemProd: make([]int32, len(entries)),
				}
				for i := range deps.MemProd {
					deps.MemProd[i] = -1
				}
			}
			if stage != stDeps {
				return nil, nil, corruptf("dependence frame out of order")
			}
			if depsClosed {
				return nil, nil, corruptf("dependence frame after the section's final frame")
			}
			depsClosed = len(payload) < frameTarget
			if err := decodeDeps(payload, int(count), entries, deps, &depi); err != nil {
				return nil, nil, err
			}
		case kindEnd:
			if stage != stDeps {
				return nil, nil, corruptf("end frame before index sections")
			}
			if !depsClosed {
				return nil, nil, corruptf("dependence section missing its final frame")
			}
			if depi != len(entries) {
				return nil, nil, corruptf("dependence section covers %d of %d entries", depi, len(entries))
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
			t := &trace.Trace{Entries: entries}
			t.RestoreIndex(occ)
			return t, deps, nil
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

// decodeEntries parses one entry frame, appending its entries to dst.
func decodeEntries(dst []trace.Entry, payload []byte, count int) ([]trace.Entry, error) {
	pos := 0
	var prevPC, prevAddr uint64
	var e trace.Entry
	for j := 0; j < count; j++ {
		if pos+2 > len(payload) {
			return nil, corruptf("entry %d: truncated flags/op", j)
		}
		e = trace.Entry{Flags: payload[pos], Op: isa.Op(payload[pos+1])}
		pos += 2
		d, next, err := svarintAt(payload, pos)
		if err != nil {
			return nil, err
		}
		pos = next
		e.PC = prevPC + uint64(d)
		prevPC = e.PC
		d, next, err = svarintAt(payload, pos)
		if err != nil {
			return nil, err
		}
		pos = next
		e.Next = e.PC + isa.InstSize + uint64(d)
		if e.IsLoad() || e.IsStore() {
			if pos >= len(payload) {
				return nil, corruptf("entry %d: truncated memory width", j)
			}
			e.MemW = payload[pos]
			pos++
			d, next, err = svarintAt(payload, pos)
			if err != nil {
				return nil, err
			}
			pos = next
			e.Addr = prevAddr + uint64(d)
			prevAddr = e.Addr
		}
		if e.HasDst() {
			if pos >= len(payload) {
				return nil, corruptf("entry %d: truncated destination", j)
			}
			if payload[pos] >= isa.NumRegs {
				return nil, corruptf("entry %d: destination register %d out of range", j, payload[pos])
			}
			e.Dst = isa.Reg(payload[pos])
			pos++
		}
		if pos >= len(payload) {
			return nil, corruptf("entry %d: truncated source count", j)
		}
		nsrc := payload[pos]
		pos++
		if nsrc > 2 {
			return nil, corruptf("entry %d: source count %d exceeds 2", j, nsrc)
		}
		if pos+int(nsrc) > len(payload) {
			return nil, corruptf("entry %d: truncated sources", j)
		}
		e.NSrc = nsrc
		for k := 0; k < int(nsrc); k++ {
			if payload[pos] >= isa.NumRegs {
				return nil, corruptf("entry %d: source register %d out of range", j, payload[pos])
			}
			e.Srcs[k] = isa.Reg(payload[pos])
			pos++
		}
		dst = append(dst, e)
	}
	if pos != len(payload) {
		return nil, corruptf("entry frame carries %d trailing bytes", len(payload)-pos)
	}
	return dst, nil
}

// decodeOcc parses one occurrence frame into occ, validating each list
// against the decoded entries: PCs strictly ascend across frames, indices
// strictly ascend within a list, and every index's entry retires at the
// list's PC. Together with the total-coverage check at the section
// boundary this forces the decoded index to be exactly canonical.
func decodeOcc(payload []byte, count int, entries []trace.Entry, occ map[uint64][]int32, backing *[]int32, lastPC *uint64, havePC *bool, total *int) error {
	pos := 0
	prevPC := uint64(0) // delta state resets per frame; first PC is absolute
	for j := 0; j < count; j++ {
		d, next, err := uvarintAt(payload, pos)
		if err != nil {
			return err
		}
		pos = next
		pc := prevPC + d
		if j > 0 && d == 0 {
			return corruptf("occurrence PCs not strictly ascending at %#x", pc)
		}
		if *havePC && pc <= *lastPC {
			return corruptf("occurrence PC %#x not above previous frame's %#x", pc, *lastPC)
		}
		prevPC, *lastPC, *havePC = pc, pc, true
		cnt, next, err := uvarintAt(payload, pos)
		if err != nil {
			return err
		}
		pos = next
		if cnt == 0 {
			return corruptf("empty occurrence list for PC %#x", pc)
		}
		if cnt > uint64(len(payload)-pos) || *total+int(cnt) > len(entries) {
			return corruptf("occurrence list for PC %#x overflows trace", pc)
		}
		start := len(*backing)
		var ix uint64
		for k := 0; k < int(cnt); k++ {
			d, next, err := uvarintAt(payload, pos)
			if err != nil {
				return err
			}
			pos = next
			if k == 0 {
				ix = d
			} else {
				if d == 0 {
					return corruptf("occurrence indices for PC %#x not strictly ascending", pc)
				}
				ix += d
			}
			if ix >= uint64(len(entries)) {
				return corruptf("occurrence index %d for PC %#x out of range", ix, pc)
			}
			if entries[ix].PC != pc {
				return corruptf("occurrence index %d claims PC %#x, entry has %#x", ix, pc, entries[ix].PC)
			}
			*backing = append(*backing, int32(ix))
		}
		// Three-index slice: a later append to the backing array must never
		// alias into an installed list.
		occ[pc] = (*backing)[start:len(*backing):len(*backing)]
		*total += int(cnt)
	}
	if pos != len(payload) {
		return corruptf("occurrence frame carries %d trailing bytes", len(payload)-pos)
	}
	return nil
}

// decodeDeps parses one dependence frame, resuming at entry *depi.
func decodeDeps(payload []byte, count int, entries []trace.Entry, deps *trace.Deps, depi *int) error {
	pos := 0
	for j := 0; j < count; j++ {
		i := *depi
		if i >= len(entries) {
			return corruptf("dependence section overruns %d entries", len(entries))
		}
		e := &entries[i]
		for k := 0; k < int(e.NSrc); k++ {
			d, next, err := svarintAt(payload, pos)
			if err != nil {
				return err
			}
			pos = next
			prod := int64(i) + d
			if prod < -1 || prod >= int64(i) {
				return corruptf("entry %d: register producer %d out of range", i, prod)
			}
			deps.RegProd[i][k] = int32(prod)
		}
		if e.IsLoad() {
			d, next, err := svarintAt(payload, pos)
			if err != nil {
				return err
			}
			pos = next
			prod := int64(i) + d
			if prod < -1 || prod >= int64(i) {
				return corruptf("entry %d: memory producer %d out of range", i, prod)
			}
			deps.MemProd[i] = int32(prod)
		}
		*depi = i + 1
	}
	if pos != len(payload) {
		return corruptf("dependence frame carries %d trailing bytes", len(payload)-pos)
	}
	return nil
}
