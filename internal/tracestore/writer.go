package tracestore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/isa"
	"repro/internal/trace"
)

func unencodablef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnencodable, fmt.Sprintf(format, args...))
}

// encodedBytesPerEntry presizes Encode's output: the seventeen workloads
// encode to 9.9–11.7 bytes per entry, all three sections included, so one
// allocation holds the whole stream.
const encodedBytesPerEntry = 12

// Header room reserved ahead of each frame's payload, which is written
// straight into the output and framed once it is complete: the kind byte,
// the count varint (two bytes for a full entry frame's chunkEntries, three
// for the index sections' item counts) and a three-byte length varint
// (payloads from 16 KiB to 2 MiB). A frame whose header comes out another
// size — a section's small last frame — moves its payload once.
const (
	entryHeaderRoom = 1 + 2 + 3
	indexHeaderRoom = 1 + 3 + 3
)

// Encode serializes a complete trace plus its dependence information to
// bytes — the payload stored in the artifact cache and served by
// GET /v1/traces/{bench}. Each section is written in one pass straight
// into the presized output. The occurrence section comes from the trace's
// own index (restored by a decode, or built by the simulator); a trace
// without one gets it built by internal/trace for this call only, and the
// register producers come from trace.RegWriters. Encode fails with
// ErrUnencodable when an entry (or an empty trace's End) carries state the
// format would silently drop, or when d's memory producers are not a
// plausible dependence product of t, so every encoded stream decodes back
// to exactly the input.
func Encode(t *trace.Trace, d *trace.Deps) ([]byte, error) {
	n := len(t.Entries)
	if d == nil || len(d.MemProd) != n {
		return nil, unencodablef("deps cover %d entries, trace has %d", depsLen(d), n)
	}
	b := make([]byte, 0, 64+n*encodedBytesPerEntry)
	b = append(b, magic[:]...)
	b = append(b, version)
	b, err := appendEntries(b, t)
	if err != nil {
		return nil, err
	}
	b = appendOcc(b, t)
	if b, err = appendDeps(b, t.Entries, d); err != nil {
		return nil, err
	}
	b, start := beginFrame(b, indexHeaderRoom)
	return endFrame(b, start, indexHeaderRoom, kindEnd, uint64(n)), nil
}

// beginFrame reserves room header bytes for a frame whose payload the
// caller then appends; it returns the frame's start offset.
func beginFrame(b []byte, room int) ([]byte, int) {
	var zero [indexHeaderRoom]byte
	return append(b, zero[:room]...), len(b)
}

// endFrame completes the frame begun at start with room header bytes:
// it writes kind, count and the payload length into the reserved room
// (moving the payload when the header needs another size) and appends the
// payload's checksum.
func endFrame(b []byte, start, room int, kind byte, count uint64) []byte {
	plen := len(b) - start - room
	var h [1 + 2*binary.MaxVarintLen64]byte
	hdr := append(h[:0], kind)
	hdr = binary.AppendUvarint(hdr, count)
	hdr = binary.AppendUvarint(hdr, uint64(plen))
	if len(hdr) != room {
		if len(hdr) > room {
			b = append(b, h[:len(hdr)-room]...)
		}
		copy(b[start+len(hdr):], b[start+room:start+room+plen])
		b = b[:start+len(hdr)+plen]
	}
	copy(b[start:], hdr)
	return appendCRC(b, b[start+len(hdr):])
}

// appendCRC appends payload's checksum, little-endian.
func appendCRC(b, payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
}

// appendEntries writes the entry frames: chunkEntries entries per frame,
// the last frame possibly short, no frame for an empty trace. Each entry's
// next-PC delta comes from the following entry's PC, or from t.End after
// the last entry.
func appendEntries(b []byte, t *trace.Trace) ([]byte, error) {
	entries := t.Entries
	if len(entries) == 0 && t.End != 0 {
		return nil, unencodablef("empty trace carries End=%#x", t.End)
	}
	for lo := 0; lo < len(entries); lo += chunkEntries {
		chunk := entries[lo:min(lo+chunkEntries, len(entries))]
		var start int
		b, start = beginFrame(b, entryHeaderRoom)
		var prevPC, prevAddr uint64
		for j := range chunk {
			e := &chunk[j]
			isMem := e.Flags&(trace.FlagLoad|trace.FlagStore) != 0
			switch {
			case !isMem && (e.Addr != 0 || e.MemW != 0):
				return nil, unencodablef("entry %d: non-memory op carries Addr=%#x MemW=%d", lo+j, e.Addr, e.MemW)
			case !e.HasDst() && e.Dst != 0:
				return nil, unencodablef("entry %d: no-dst op carries Dst=%d", lo+j, e.Dst)
			case e.NSrc > 2:
				return nil, unencodablef("entry %d: NSrc=%d exceeds 2", lo+j, e.NSrc)
			case e.NSrc < 2 && e.Srcs[1] != 0, e.NSrc < 1 && e.Srcs[0] != 0:
				return nil, unencodablef("entry %d: source register beyond NSrc=%d is set", lo+j, e.NSrc)
			}
			b = append(b, e.Flags, uint8(e.Op))
			b = appendUvarint(b, zigzag(int64(e.PC-prevPC)))
			b = appendUvarint(b, zigzag(int64(t.NextPC(lo+j)-(e.PC+isa.InstSize))))
			prevPC = e.PC
			if isMem {
				b = append(b, e.MemW)
				b = appendUvarint(b, zigzag(int64(e.Addr-prevAddr)))
				prevAddr = e.Addr
			}
			if e.HasDst() {
				b = append(b, uint8(e.Dst))
			}
			b = append(b, e.NSrc)
			switch e.NSrc {
			case 1:
				b = append(b, uint8(e.Srcs[0]))
			case 2:
				b = append(b, uint8(e.Srcs[0]), uint8(e.Srcs[1]))
			}
		}
		b = endFrame(b, start, entryHeaderRoom, kindEntries, uint64(len(chunk)))
	}
	return b, nil
}

// appendOcc writes the occurrence frames from the trace's index: PCs
// ascending (a built index numbers them in first-retirement order, so the
// few thousand PCs are sorted, never the entries), each with its ascending
// list, a frame closing once its payload reaches frameTarget.
func appendOcc(b []byte, t *trace.Trace) []byte {
	pcs, off, backing := t.OccurrenceIndex()
	order := make([]int32, len(pcs))
	for id := range order {
		order[id] = int32(id)
	}
	if !slices.IsSorted(pcs) {
		slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(pcs[x], pcs[y]) })
	}
	b, start := beginFrame(b, indexHeaderRoom)
	framePCs := 0
	prevPC := uint64(0) // delta state resets at each frame boundary
	for _, id := range order {
		pc := pcs[id]
		list := backing[off[id]:off[id+1]]
		b = appendUvarint(b, pc-prevPC)
		b = appendUvarint(b, uint64(len(list)))
		prev := int32(0) // the first index is absolute
		for _, ix := range list {
			b = appendUvarint(b, uint64(ix-prev))
			prev = ix
		}
		prevPC = pc
		framePCs++
		if len(b)-start-indexHeaderRoom >= frameTarget {
			b = endFrame(b, start, indexHeaderRoom, kindOcc, uint64(framePCs))
			b, start = beginFrame(b, indexHeaderRoom)
			framePCs, prevPC = 0, 0
		}
	}
	return endFrame(b, start, indexHeaderRoom, kindOcc, uint64(framePCs)) // final (possibly empty) frame
}

// appendDeps writes the dependence frames: per entry, each register
// source's producer, derived by trace.RegWriters, and (for loads) the
// memory producer from d, as zigzag varints relative to the consuming
// index. It checks what the encoding relies on — a memory producer
// precedes its load, and no non-load carries one.
func appendDeps(b []byte, entries []trace.Entry, d *trace.Deps) ([]byte, error) {
	b, start := beginFrame(b, indexHeaderRoom)
	frameN := 0
	regs := trace.NewRegWriters()
	for i := range entries {
		e := &entries[i]
		reg, mem := regs.Next(i, e), d.MemProd[i]
		for k := 0; k < int(e.NSrc); k++ {
			b = appendUvarint(b, zigzag(int64(reg[k])-int64(i)))
		}
		if e.IsLoad() {
			if mem < -1 || int(mem) >= i {
				return nil, unencodablef("entry %d: memory producer %d out of range", i, mem)
			}
			b = appendUvarint(b, zigzag(int64(mem)-int64(i)))
		} else if mem != -1 {
			return nil, unencodablef("entry %d: non-load carries memory producer %d", i, mem)
		}
		frameN++
		if len(b)-start-indexHeaderRoom >= frameTarget {
			b = endFrame(b, start, indexHeaderRoom, kindDeps, uint64(frameN))
			b, start = beginFrame(b, indexHeaderRoom)
			frameN = 0
		}
	}
	return endFrame(b, start, indexHeaderRoom, kindDeps, uint64(frameN)), nil // final (possibly empty) frame
}

func depsLen(d *trace.Deps) int {
	if d == nil {
		return 0
	}
	return len(d.MemProd)
}
