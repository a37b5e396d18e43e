package tracestore

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// realTrace emulates a workload and returns its trace plus deps, capped so
// unit tests stay fast.
func realTrace(t testing.TB, name string, maxInstrs int) (*trace.Trace, *trace.Deps) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	// A capped run stops before halt; the prefix trace is still a valid
	// entry stream and keeps the test fast.
	tr, err := emu.Run(w.Assemble(), emu.Config{MaxInstrs: maxInstrs})
	if err != nil && (tr == nil || len(tr.Entries) == 0) {
		t.Fatalf("emulating %s: %v", name, err)
	}
	return tr, tr.ComputeDeps()
}

// synthTrace builds a hand-crafted trace exercising every entry shape:
// loads, stores, no-dst ops, 0/1/2 sources, backward PC deltas, large
// address jumps.
func synthTrace() (*trace.Trace, *trace.Deps) {
	tr := &trace.Trace{Entries: []trace.Entry{
		{PC: 0x1000, Op: 1, Dst: 3, NSrc: 0, Flags: trace.FlagHasDst},
		{PC: 0x1004, Op: 2, Dst: 4, Srcs: [2]isaReg{3, 0}, NSrc: 2, Flags: trace.FlagHasDst},
		{PC: 0x1008, Addr: 0xdeadbee0, Op: 3, Dst: 5, Srcs: [2]isaReg{4}, NSrc: 1, MemW: 8, Flags: trace.FlagHasDst | trace.FlagLoad},
		{PC: 0x100c, Addr: 0x10, Op: 4, Srcs: [2]isaReg{5, 4}, NSrc: 2, MemW: 4, Flags: trace.FlagStore},
		{PC: 0x0ff0, Op: 5, NSrc: 1, Srcs: [2]isaReg{3}, Flags: trace.FlagCondBranch | trace.FlagTaken},
		{PC: 0x1000, Op: 1, Dst: 3, NSrc: 0, Flags: trace.FlagHasDst},
	}, End: 0x1004}
	return tr, tr.ComputeDeps()
}

type isaReg = isa.Reg

func roundtrip(t *testing.T, tr *trace.Trace, d *trace.Deps) []byte {
	t.Helper()
	data, err := Encode(tr, d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, gotDeps, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Entries, tr.Entries) {
		t.Fatalf("entries differ after roundtrip (n=%d vs %d)", len(got.Entries), len(tr.Entries))
	}
	if got.End != tr.End {
		t.Fatalf("End %#x decoded as %#x", tr.End, got.End)
	}
	if !reflect.DeepEqual(gotDeps, d) {
		t.Fatalf("deps differ after roundtrip")
	}
	re, err := Encode(got, gotDeps)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(re, data) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(re), len(data))
	}
	return data
}

func TestRoundtripSynthetic(t *testing.T) {
	tr, d := synthTrace()
	data := roundtrip(t, tr, d)

	// The decoded occurrence index must match the lazily built one.
	got, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{0x1000, 0x1004, 0x0ff0, 0x9999} {
		want := tr.Occurrences(pc)
		if !reflect.DeepEqual(got.Occurrences(pc), want) {
			t.Errorf("occurrences for %#x differ: %v vs %v", pc, got.Occurrences(pc), want)
		}
	}
}

func TestRoundtripEmpty(t *testing.T) {
	tr := &trace.Trace{}
	roundtrip(t, tr, tr.ComputeDeps())
}

func TestRoundtripWorkloads(t *testing.T) {
	// Real traces, including one long enough to span multiple entry frames.
	for _, tc := range []struct {
		name string
		max  int
	}{{"gzip", 20000}, {"mcf", 6000}, {"twolf", 3000}} {
		t.Run(tc.name, func(t *testing.T) {
			tr, d := realTrace(t, tc.name, tc.max)
			if tc.name == "gzip" && len(tr.Entries) <= chunkEntries {
				t.Fatalf("want >%d entries to cover multi-frame path, got %d", chunkEntries, len(tr.Entries))
			}
			roundtrip(t, tr, d)
		})
	}
}

func TestTruncationAndCorruption(t *testing.T) {
	tr, d := realTrace(t, "mcf", 4000)
	data, err := Encode(tr, d)
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix must error (never panic, never succeed). Probe a
	// spread of cut points plus all short prefixes.
	cuts := []int{0, 1, 4, 5, 6, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		if _, _, err := Decode(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}

	// Trailing garbage after the end frame.
	if _, _, err := Decode(append(append([]byte{}, data...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: got %v, want ErrCorrupt", err)
	}

	// Single-byte corruption at a spread of offsets: either checksum or
	// structural validation must catch it — or, if it decodes (e.g. a flip
	// inside a CRC that happens to collide — impossible for single flips,
	// but keep the check honest), it must re-encode canonically.
	for off := 0; off < len(data); off += 97 {
		mut := append([]byte{}, data...)
		mut[off] ^= 0x40
		got, gotDeps, err := Decode(mut)
		if err == nil {
			re, rerr := Encode(got, gotDeps)
			if rerr != nil || !bytes.Equal(re, mut) {
				t.Errorf("corruption at %d decoded non-canonically", off)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("corruption at %d: got %v, want ErrCorrupt", off, err)
		}
	}
}

func TestUnencodableEntries(t *testing.T) {
	base := trace.Entry{PC: 4, Op: 1}
	for name, e := range map[string]trace.Entry{
		"addr-on-nonmem":  {PC: 8, Addr: 8},
		"memw-on-nonmem":  {PC: 8, MemW: 4},
		"dst-without-has": {PC: 8, Dst: 3},
		"nsrc-over-2":     {PC: 8, NSrc: 3},
		"src-beyond-nsrc": {PC: 8, NSrc: 1, Srcs: [2]isaReg{1, 2}},
	} {
		t.Run(name, func(t *testing.T) {
			tr := &trace.Trace{Entries: []trace.Entry{base, e}, End: 12}
			d := &trace.Deps{MemProd: []int32{-1, -1}}
			if _, err := Encode(tr, d); !errors.Is(err, ErrUnencodable) {
				t.Fatalf("got %v, want ErrUnencodable", err)
			}
		})
	}
	// With no entry to carry it, End would be dropped.
	if _, err := Encode(&trace.Trace{End: 4}, &trace.Deps{}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("empty trace with End: got %v, want ErrUnencodable", err)
	}
}

func TestEncodeValidatesDeps(t *testing.T) {
	tr, _ := synthTrace()
	short := &trace.Deps{MemProd: make([]int32, 2)}
	if _, err := Encode(tr, short); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("short deps: got %v, want ErrUnencodable", err)
	}
	if _, err := Encode(tr, nil); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("nil deps: got %v, want ErrUnencodable", err)
	}

	for name, forge := range map[string]func(d *trace.Deps){
		"future memory producer":      func(d *trace.Deps) { d.MemProd[2] = 3 },
		"memory producer on non-load": func(d *trace.Deps) { d.MemProd[3] = 0 },
	} {
		tr, d := synthTrace()
		forge(d)
		if _, err := Encode(tr, d); !errors.Is(err, ErrUnencodable) {
			t.Errorf("%s: got %v, want ErrUnencodable", name, err)
		}
	}
}

// reframe rebuilds data with the payload of its first frame of the given
// kind replaced (count kept, length and checksum recomputed), so a test can
// forge a section the checksums accept and only structural validation can
// reject.
func reframe(t *testing.T, data []byte, kind byte, payload []byte) []byte {
	t.Helper()
	p := &parser{data: data}
	if err := p.header(); err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, data[:5]...)
	replaced := false
	for p.off < len(data) {
		k, count, pl, err := p.frame()
		if err != nil {
			t.Fatal(err)
		}
		if k == kind && !replaced {
			pl, replaced = payload, true
		}
		out = append(out, k)
		out = appendUvarint(out, count)
		out = appendUvarint(out, uint64(len(pl)))
		out = append(out, pl...)
		out = appendCRC(out, pl)
	}
	if !replaced {
		t.Fatalf("no frame of kind %q", kind)
	}
	return out
}

// TestForgedOccurrenceIndex holds the occurrence section's cross-validation
// against index lists that pass every checksum: each must decode to exactly
// the canonical index or fail with ErrCorrupt.
func TestForgedOccurrenceIndex(t *testing.T) {
	tr, d := synthTrace()
	data, err := Encode(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	// synthTrace retires 0x0ff0 at 4, 0x1000 at 0 and 5, 0x1004 at 1,
	// 0x1008 at 2 and 0x100c at 3. Each list is PC delta, count, then the
	// first index and ascending index deltas.
	occ := func(lists ...[]uint64) []byte {
		var b []byte
		for _, l := range lists {
			for _, v := range l {
				b = appendUvarint(b, v)
			}
		}
		return b
	}
	canonical := [][]uint64{{0xff0, 1, 4}, {0x10, 2, 0, 5}, {4, 1, 1}, {4, 1, 2}, {4, 1, 3}}
	if _, _, err := Decode(reframe(t, data, kindOcc, occ(canonical...))); err != nil {
		t.Fatalf("canonical hand-built occurrence frame rejected: %v", err)
	}
	for name, lists := range map[string][][]uint64{
		"index claims wrong PC": {{0xff0, 1, 4}, {0x10, 2, 0, 5}, {4, 1, 2}, {4, 1, 1}, {4, 1, 3}},
		"index listed twice":    {{0xff0, 1, 4}, {0x10, 2, 0, 5}, {4, 1, 1}, {4, 1, 1}, {4, 1, 3}},
		"indices wrap":          {{0xff0, 1, 4}, {0x10, 2, 5, ^uint64(0) - 4}, {4, 1, 1}, {4, 1, 2}, {4, 1, 3}},
		"PCs not ascending":     {{0xff0, 1, 4}, {0x10, 2, 0, 5}, {0, 1, 1}, {4, 1, 2}, {4, 1, 3}},
		"index out of range":    {{0xff0, 1, 4}, {0x10, 2, 0, 6}, {4, 1, 1}, {4, 1, 2}, {4, 1, 3}},
		"entry not covered":     {{0xff0, 1, 4}, {0x10, 1, 0}, {4, 1, 1}, {4, 1, 2}, {4, 1, 3}},
	} {
		if _, _, err := Decode(reframe(t, data, kindOcc, occ(lists...))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestForgedDependences holds the dependence section's cross-validation
// against producer lists that pass every checksum: register producers must
// be exactly each source's last writer, and memory producers must precede
// their load.
func TestForgedDependences(t *testing.T) {
	tr, d := synthTrace()
	data, err := Encode(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	// deps encodes one producer list per entry of synthTrace, each producer
	// relative to its consumer: register sources first, then a load's
	// memory producer.
	deps := func(prods ...[]int64) []byte {
		var b []byte
		for i, l := range prods {
			for _, p := range l {
				b = appendUvarint(b, zigzag(p-int64(i)))
			}
		}
		return b
	}
	canonical := [][]int64{{}, {0, -1}, {1, -1}, {2, 1}, {0}, {}}
	got, gotDeps, err := Decode(reframe(t, data, kindDeps, deps(canonical...)))
	if err != nil {
		t.Fatalf("canonical hand-built dependence frame rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Entries, tr.Entries) || !reflect.DeepEqual(gotDeps, d) {
		t.Fatal("canonical hand-built dependence frame decodes to another trace")
	}
	for name, prods := range map[string][][]int64{
		"register producer is an older writer": {{}, {0, -1}, {1, -1}, {1, 1}, {0}, {}},
		"register producer predates the trace": {{}, {-1, -1}, {1, -1}, {2, 1}, {0}, {}},
		"register producer writes no register": {{}, {0, -1}, {1, -1}, {2, 1}, {3}, {}},
		"register producer writes another reg": {{}, {0, -1}, {0, -1}, {2, 1}, {0}, {}},
		"register producer is the consumer":    {{}, {1, -1}, {1, -1}, {2, 1}, {0}, {}},
		"memory producer is the consumer":      {{}, {0, -1}, {1, 2}, {2, 1}, {0}, {}},
		"memory producer precedes the trace":   {{}, {0, -1}, {1, -2}, {2, 1}, {0}, {}},
	} {
		if _, _, err := Decode(reframe(t, data, kindDeps, deps(prods...))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestForgedNextPC holds the next-PC chain: a next-PC delta that disagrees
// with the PC of the entry after it passes every checksum, and both decode
// paths must reject it, within a frame and across the boundary between
// entry frames.
func TestForgedNextPC(t *testing.T) {
	tr, d := loopTrace(chunkEntries + 904)
	data, err := Encode(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"canonical":          data,
		"hand-built payload": reframe(t, data, kindEntries, loopPayload(-1, 0)),
	} {
		got, gotDeps, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Entries, tr.Entries) || got.End != tr.End || !reflect.DeepEqual(gotDeps, d) {
			t.Fatalf("%s: decodes to another trace", name)
		}
	}
	for name, forged := range map[string][]byte{
		// Entry 10 (PC 8) claims PC 16 next; entry 11 retires at 12.
		"mid-frame": reframe(t, data, kindEntries, loopPayload(10, zigzag(4))),
		// Entry 4095 (PC 28) claims PC 4 next; entry 4096, the first of
		// the second frame, retires at 0.
		"frame boundary": reframe(t, data, kindEntries, loopPayload(chunkEntries-1, zigzag(-28))),
	} {
		if _, _, err := Decode(forged); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode got %v, want ErrCorrupt", name, err)
		}
		if _, _, err := Open(bytes.NewReader(forged), int64(len(forged))).Load(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load got %v, want ErrCorrupt", name, err)
		}
	}
}

// loopTrace retires n entries of an eight-instruction loop at PCs 0..28,
// small enough that every delta, an entry frame's absolute first PC
// included, takes one byte.
func loopTrace(n int) (*trace.Trace, *trace.Deps) {
	tr := &trace.Trace{Entries: make([]trace.Entry, n)}
	for i := range tr.Entries {
		tr.Entries[i] = trace.Entry{PC: uint64(i%8) * isa.InstSize, Op: isa.OpNOP}
	}
	tr.End = uint64(n%8) * isa.InstSize
	return tr, tr.ComputeDeps()
}

// loopPayload hand-builds the first entry frame of a loopTrace of at
// least chunkEntries entries, whose every entry is five bytes (flags,
// opcode, PC delta, next-PC delta, source count), with entry forge's
// next-PC delta replaced by delta.
func loopPayload(forge int, delta uint64) []byte {
	var b []byte
	prevPC := int64(0)
	for j := 0; j < chunkEntries; j++ {
		pc := int64(j%8) * isa.InstSize
		next := zigzag(0)
		if j%8 == 7 {
			next = zigzag(-pc - isa.InstSize) // back to the loop head
		}
		if j == forge {
			next = delta
		}
		b = append(b, 0, byte(isa.OpNOP), byte(zigzag(pc-prevPC)), byte(next), 0)
		prevPC = pc
	}
	return b
}
