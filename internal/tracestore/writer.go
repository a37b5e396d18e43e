package tracestore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/isa"
	"repro/internal/trace"
)

func unencodablef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnencodable, fmt.Sprintf(format, args...))
}

// Writer streams a trace into the polyflow-trace/1 format: entries are
// appended one at a time (encoded and flushed in bounded chunks, so writer
// memory does not hold the encoded stream), and Finish serializes the
// occurrence index — accumulated incrementally during Append — plus the
// caller-supplied dependence information and the end frame.
type Writer struct {
	w   io.Writer
	err error

	buf      []byte // payload of the frame being built
	chunkN   int    // entries in the current 'E' frame
	n        int    // total entries appended
	prevPC   uint64
	prevAddr uint64

	// The occurrence index is built without Go maps: pcs gives each PC a
	// dense id (in first-retirement order), ids records every entry's PC
	// id, and Finish counting-sorts the entry indices by id.
	pcs trace.PCIndex
	ids []int32

	// meta remembers, per entry, the source count and load bit the deps
	// section needs at Finish (loadBit<<7 | nsrc).
	meta []uint8

	finished bool
}

// NewWriter starts a trace stream on w, writing the format header.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{
		w:   w,
		buf: make([]byte, 0, frameTarget+1024),
	}
	hdr := append(magic[:], version)
	if _, err := w.Write(hdr); err != nil {
		tw.err = err
	}
	return tw
}

// Append encodes one retired entry. It fails with ErrUnencodable when the
// entry carries state the format would silently drop, so every encoded
// stream decodes back to exactly the input.
func (tw *Writer) Append(e trace.Entry) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.finished {
		tw.err = fmt.Errorf("tracestore: Append after Finish")
		return tw.err
	}
	isMem := e.IsLoad() || e.IsStore()
	switch {
	case !isMem && (e.Addr != 0 || e.MemW != 0):
		tw.err = unencodablef("entry %d: non-memory op carries Addr=%#x MemW=%d", tw.n, e.Addr, e.MemW)
	case !e.HasDst() && e.Dst != 0:
		tw.err = unencodablef("entry %d: no-dst op carries Dst=%d", tw.n, e.Dst)
	case e.NSrc > 2:
		tw.err = unencodablef("entry %d: NSrc=%d exceeds 2", tw.n, e.NSrc)
	case e.NSrc < 2 && e.Srcs[1] != 0, e.NSrc < 1 && e.Srcs[0] != 0:
		tw.err = unencodablef("entry %d: source register beyond NSrc=%d is set", tw.n, e.NSrc)
	}
	if tw.err != nil {
		return tw.err
	}

	b := append(tw.buf, e.Flags, uint8(e.Op))
	b = appendUvarint(b, zigzag(int64(e.PC-tw.prevPC)))
	b = appendUvarint(b, zigzag(int64(e.Next-(e.PC+isa.InstSize))))
	tw.prevPC = e.PC
	if isMem {
		b = append(b, e.MemW)
		b = appendUvarint(b, zigzag(int64(e.Addr-tw.prevAddr)))
		tw.prevAddr = e.Addr
	}
	if e.HasDst() {
		b = append(b, uint8(e.Dst))
	}
	b = append(b, e.NSrc)
	for k := 0; k < int(e.NSrc); k++ {
		b = append(b, uint8(e.Srcs[k]))
	}
	tw.buf = b

	tw.ids = append(tw.ids, tw.pcs.ID(e.PC))
	m := e.NSrc
	if e.IsLoad() {
		m |= 1 << 7
	}
	tw.meta = append(tw.meta, m)
	tw.n++
	tw.chunkN++
	if tw.chunkN == chunkEntries {
		tw.flushEntries()
	}
	return tw.err
}

// Finish writes the occurrence and dependence sections and the end frame.
// d must be the trace's ComputeDeps product, covering every appended entry.
func (tw *Writer) Finish(d *trace.Deps) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.finished {
		tw.err = fmt.Errorf("tracestore: Finish called twice")
		return tw.err
	}
	tw.finished = true
	if d == nil || len(d.RegProd) != tw.n || len(d.MemProd) != tw.n {
		tw.err = unencodablef("deps cover %d entries, trace has %d", depsLen(d), tw.n)
		return tw.err
	}
	tw.flushEntries()

	// Occurrence section: ascending PCs, ascending index lists. Counting
	// sort by PC id into one backing array, lists laid out in ascending PC
	// order; one pass over the entries fills each list in index order.
	byPC := make([]int32, len(tw.pcs.PCs()))
	for id := range byPC {
		byPC[id] = int32(id)
	}
	sort.Slice(byPC, func(i, j int) bool { return tw.pcs.PCs()[byPC[i]] < tw.pcs.PCs()[byPC[j]] })
	count := make([]int32, len(byPC))
	for _, id := range tw.ids {
		count[id]++
	}
	next := make([]int32, len(byPC)) // next free slot of each id's list
	off := int32(0)
	for _, id := range byPC {
		next[id] = off
		off += count[id]
	}
	occ := make([]int32, tw.n)
	for i, id := range tw.ids {
		occ[next[id]] = int32(i)
		next[id]++
	}
	framePCs := 0
	var prevPC uint64
	for _, id := range byPC {
		pc := tw.pcs.PCs()[id]
		if framePCs == 0 {
			prevPC = 0 // delta state resets at each frame boundary
		}
		tw.buf = appendUvarint(tw.buf, pc-prevPC)
		prevPC = pc
		idxs := occ[next[id]-count[id] : next[id]]
		tw.buf = appendUvarint(tw.buf, uint64(len(idxs)))
		prev := int32(0)
		for k, ix := range idxs {
			if k == 0 {
				tw.buf = appendUvarint(tw.buf, uint64(ix))
			} else {
				tw.buf = appendUvarint(tw.buf, uint64(ix-prev))
			}
			prev = ix
		}
		framePCs++
		if len(tw.buf) >= frameTarget {
			tw.emit(kindOcc, uint64(framePCs))
			framePCs = 0
		}
	}
	tw.emit(kindOcc, uint64(framePCs)) // final (possibly empty) frame

	// Dependence section: producers relative to the consuming index.
	frameN := 0
	b := tw.buf
	for i, m := range tw.meta {
		nsrc := int(m & 0x7f)
		reg, mem := d.RegProd[i], d.MemProd[i]
		for k := 0; k < nsrc; k++ {
			if reg[k] < -1 || int(reg[k]) >= i {
				tw.err = unencodablef("entry %d: register producer %d out of range", i, reg[k])
				return tw.err
			}
			b = appendUvarint(b, zigzag(int64(reg[k])-int64(i)))
		}
		for k := nsrc; k < 2; k++ {
			if reg[k] != 0 {
				tw.err = unencodablef("entry %d: register producer beyond NSrc is set", i)
				return tw.err
			}
		}
		if m&(1<<7) != 0 {
			if mem < -1 || int(mem) >= i {
				tw.err = unencodablef("entry %d: memory producer %d out of range", i, mem)
				return tw.err
			}
			b = appendUvarint(b, zigzag(int64(mem)-int64(i)))
		} else if mem != -1 {
			tw.err = unencodablef("entry %d: non-load carries memory producer %d", i, mem)
			return tw.err
		}
		frameN++
		if len(b) >= frameTarget {
			tw.buf = b
			tw.emit(kindDeps, uint64(frameN))
			if tw.err != nil {
				return tw.err
			}
			b, frameN = tw.buf, 0
		}
	}
	tw.buf = b
	tw.emit(kindDeps, uint64(frameN)) // final (possibly empty) frame

	tw.emit(kindEnd, uint64(tw.n))
	return tw.err
}

// flushEntries emits the current 'E' frame and resets the per-chunk delta
// state. Empty chunks are skipped: 'E' frames always carry entries.
func (tw *Writer) flushEntries() {
	if tw.chunkN == 0 {
		return
	}
	tw.emit(kindEntries, uint64(tw.chunkN))
	tw.chunkN = 0
	tw.prevPC = 0
	tw.prevAddr = 0
}

// emit frames tw.buf as one kind/count/len/payload/crc record.
func (tw *Writer) emit(kind byte, count uint64) {
	if tw.err != nil {
		return
	}
	var hdr [2 * 10]byte
	h := append(hdr[:0], kind)
	h = appendUvarint(h, count)
	h = appendUvarint(h, uint64(len(tw.buf)))
	if _, err := tw.w.Write(h); err != nil {
		tw.err = err
		return
	}
	if _, err := tw.w.Write(tw.buf); err != nil {
		tw.err = err
		return
	}
	var crc [4]byte
	putCRC(crc[:], tw.buf)
	if _, err := tw.w.Write(crc[:]); err != nil {
		tw.err = err
		return
	}
	tw.buf = tw.buf[:0]
}

func putCRC(dst, payload []byte) {
	c := crc32.Checksum(payload, crcTable)
	dst[0] = byte(c)
	dst[1] = byte(c >> 8)
	dst[2] = byte(c >> 16)
	dst[3] = byte(c >> 24)
}

// encodedBytesPerEntry presizes Encode's output: the seventeen workloads
// encode to 9.9–11.7 bytes per entry, all three sections included, so one
// allocation holds the whole stream.
const encodedBytesPerEntry = 12

// Encode serializes a complete trace plus its dependence information to
// bytes — the payload stored in the artifact cache and served by
// GET /v1/traces/{bench}.
func Encode(t *trace.Trace, d *trace.Deps) ([]byte, error) {
	n := len(t.Entries)
	var buf bytes.Buffer
	buf.Grow(64 + n*encodedBytesPerEntry)
	w := NewWriter(&buf)
	w.ids = make([]int32, 0, n)
	w.meta = make([]uint8, 0, n)
	for i := range t.Entries {
		if err := w.Append(t.Entries[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Finish(d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func depsLen(d *trace.Deps) int {
	if d == nil {
		return 0
	}
	return len(d.RegProd)
}
