// Package hints serializes spawn-point information the way the paper's
// system ships it: "Augmenting the program binary with compiler-generated
// postdominator information associated with each branch ... a separate
// section in the binary that is loaded into this cache on demand", where
// each spawn point also carries "an eight byte entry ... used to store
// register and memory dependence information for the task".
//
// A Section holds one record per spawn point: the trigger PC, the spawn
// target, the category, and the 8-byte dependence hint — here a bitmask of
// the general-purpose registers the spawning task may still produce for the
// spawned task (bit r set = register r is written somewhere in the static
// region the spawn jumps over), with the top bit flagging that the region
// also contains stores (memory dependence possible). The encoding is a
// fixed-width little-endian layout with a magic/version header and a
// trailing checksum, so a corrupted hint section is detected rather than
// silently mis-spawning.
package hints

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/isa"
)

// Record is one spawn point as stored in the binary's hint section.
type Record struct {
	From   uint64
	Target uint64
	Kind   core.Kind
	// DepHint is the paper's 8-byte dependence entry: bits 0..31 mark
	// registers the jumped-over region writes; MemBit marks that the
	// region contains stores.
	DepHint uint64
}

// MemBit flags a region containing stores in a Record's DepHint.
const MemBit uint64 = 1 << 63

// Section is a loadable hint section.
type Section struct {
	Records []Record
}

const (
	magic   uint32 = 0x50444853 // "PDHS"
	version uint32 = 1
	recSize        = 8 + 8 + 4 + 8
)

// Build computes the hint section for an analyzed program: one record per
// spawn point, with the dependence hint derived from the static
// instructions between the trigger and the target (the region the spawned
// task is control equivalent past).
func Build(a *core.Analysis) *Section {
	s := &Section{}
	for _, sp := range a.Spawns {
		s.Records = append(s.Records, Record{
			From:    sp.From,
			Target:  sp.Target,
			Kind:    sp.Kind,
			DepHint: regionDepHint(a.Prog, sp),
		})
	}
	return s
}

// regionDepHint scans the static layout between the spawn trigger and its
// target. For backward targets (loop-iteration spawns) the whole loop body
// is scanned. Calls inside the region conservatively set every
// caller-saved register and the memory bit.
func regionDepHint(p *isa.Program, sp core.Spawn) uint64 {
	lo, hi := sp.From, sp.Target
	if hi < lo {
		lo, hi = hi, lo
	}
	var hint uint64
	for pc := lo; pc < hi; pc += isa.InstSize {
		inst, ok := p.InstAt(pc)
		if !ok {
			break
		}
		if d, has := inst.Dst(); has {
			hint |= 1 << uint(d)
		}
		if inst.IsStore() {
			hint |= MemBit
		}
		if inst.IsCall() {
			// Caller-saved: v0-v1, a0-a3, t0-t9, ra.
			hint |= 1<<uint(isa.V0) | 1<<uint(isa.V1) | 1<<uint(isa.RA)
			for r := isa.A0; r <= isa.T7; r++ {
				hint |= 1 << uint(r)
			}
			hint |= 1<<uint(isa.T8) | 1<<uint(isa.T9)
			hint |= MemBit
		}
	}
	return hint
}

// Encode writes the section in its binary format.
func (s *Section) Encode(w io.Writer) error {
	buf := make([]byte, 12+recSize*len(s.Records)+4)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(s.Records)))
	off := 12
	for _, r := range s.Records {
		binary.LittleEndian.PutUint64(buf[off:], r.From)
		binary.LittleEndian.PutUint64(buf[off+8:], r.Target)
		binary.LittleEndian.PutUint32(buf[off+16:], uint32(r.Kind))
		binary.LittleEndian.PutUint64(buf[off+20:], r.DepHint)
		off += recSize
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	_, err := w.Write(buf)
	return err
}

// Decode reads a section previously written by Encode, verifying the
// header and checksum.
func Decode(r io.Reader) (*Section, error) {
	head := make([]byte, 12)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("hints: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != magic {
		return nil, fmt.Errorf("hints: bad magic")
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return nil, fmt.Errorf("hints: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint32(head[8:])
	if n > 1<<24 {
		return nil, fmt.Errorf("hints: implausible record count %d", n)
	}
	body := make([]byte, recSize*int(n)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("hints: reading %d records: %w", n, err)
	}
	sum := binary.LittleEndian.Uint32(body[len(body)-4:])
	whole := append(append([]byte{}, head...), body[:len(body)-4]...)
	if crc32.ChecksumIEEE(whole) != sum {
		return nil, fmt.Errorf("hints: checksum mismatch")
	}
	s := &Section{Records: make([]Record, n)}
	off := 0
	for i := range s.Records {
		s.Records[i] = Record{
			From:    binary.LittleEndian.Uint64(body[off:]),
			Target:  binary.LittleEndian.Uint64(body[off+8:]),
			Kind:    core.Kind(binary.LittleEndian.Uint32(body[off+16:])),
			DepHint: binary.LittleEndian.Uint64(body[off+20:]),
		}
		off += recSize
	}
	return s, nil
}

// Table reconstructs the spawn table a hint cache serves from this section.
func (s *Section) Table() core.Table {
	t := core.Table{}
	for _, r := range s.Records {
		t[r.From] = append(t[r.From], core.Spawn{From: r.From, Target: r.Target, Kind: r.Kind})
	}
	return t
}

// Source returns a core.Source backed by the decoded section — the
// hint-cache contents a spawn unit would load on demand.
func (s *Section) Source() *core.StaticSource {
	return core.NewStaticSource(s.Table())
}
