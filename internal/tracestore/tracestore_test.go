package tracestore

import (
	"bytes"
	"errors"
	"io"
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
		{PC: 0x1000, Next: 0x1004, Op: 1, Dst: 3, NSrc: 0, Flags: trace.FlagHasDst},
		{PC: 0x1004, Next: 0x1008, Op: 2, Dst: 4, Srcs: [2]isaReg{3, 0}, NSrc: 2, Flags: trace.FlagHasDst},
		{PC: 0x1008, Next: 0x100c, Addr: 0xdeadbee0, Op: 3, Dst: 5, Srcs: [2]isaReg{4}, NSrc: 1, MemW: 8, Flags: trace.FlagHasDst | trace.FlagLoad},
		{PC: 0x100c, Next: 0x0ff0, Addr: 0x10, Op: 4, Srcs: [2]isaReg{5, 4}, NSrc: 2, MemW: 4, Flags: trace.FlagStore},
		{PC: 0x0ff0, Next: 0x1000, Op: 5, NSrc: 1, Srcs: [2]isaReg{3}, Flags: trace.FlagCondBranch | trace.FlagTaken},
		{PC: 0x1000, Next: 0x1004, Op: 1, Dst: 3, NSrc: 0, Flags: trace.FlagHasDst},
	}}
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

func TestSequentialReaderSingleUse(t *testing.T) {
	tr, d := synthTrace()
	data, err := Encode(tr, d)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(data))
	if _, _, err := r.Load(); err != nil {
		t.Fatalf("first Load: %v", err)
	}
	if _, _, err := r.Load(); err == nil {
		t.Fatal("second Load on a sequential reader should fail")
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
	base := trace.Entry{PC: 4, Next: 8, Op: 1}
	for name, e := range map[string]trace.Entry{
		"addr-on-nonmem":  {PC: 4, Next: 8, Addr: 8},
		"memw-on-nonmem":  {PC: 4, Next: 8, MemW: 4},
		"dst-without-has": {PC: 4, Next: 8, Dst: 3},
		"nsrc-over-2":     {PC: 4, Next: 8, NSrc: 3},
		"src-beyond-nsrc": {PC: 4, Next: 8, NSrc: 1, Srcs: [2]isaReg{1, 2}},
	} {
		t.Run(name, func(t *testing.T) {
			w := NewWriter(io.Discard)
			if err := w.Append(base); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(e); !errors.Is(err, ErrUnencodable) {
				t.Fatalf("got %v, want ErrUnencodable", err)
			}
		})
	}
}

func TestFinishValidatesDeps(t *testing.T) {
	tr, _ := synthTrace()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range tr.Entries {
		if err := w.Append(tr.Entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	short := &trace.Deps{RegProd: make([][2]int32, 2), MemProd: make([]int32, 2)}
	if err := w.Finish(short); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("short deps: got %v, want ErrUnencodable", err)
	}

	// Future producer index must be rejected.
	tr2, d2 := synthTrace()
	d2.RegProd[1][0] = 5
	if _, err := Encode(tr2, d2); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("future producer: got %v, want ErrUnencodable", err)
	}
}
