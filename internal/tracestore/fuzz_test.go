package tracestore

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// synthFromBytes derives a valid trace deterministically from arbitrary
// fuzz bytes: each 4-byte window drives one entry's shape (memory kind,
// destination, source count, control flow — the PC retired next, which
// becomes the next entry's PC or, after the last, End), with registers
// masked into range and deps derived by the reference scan — so every
// synthesized trace is encodable and the fuzzer steers entry-stream shape
// directly.
func synthFromBytes(data []byte) (*trace.Trace, *trace.Deps) {
	tr := &trace.Trace{}
	pc := uint64(0x1000)
	addr := uint64(0x10000)
	for i := 0; i+4 <= len(data); i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		e := trace.Entry{PC: pc, Op: isa.Op(b2)}
		switch b0 & 3 {
		case 0:
			pc += isa.InstSize
		case 1:
			pc += isa.InstSize + uint64(b1)*isa.InstSize
		case 2:
			pc -= uint64(b1) * isa.InstSize // backward, may wrap
		case 3:
			pc = 0x1000
		}
		switch (b0 >> 2) & 3 {
		case 1:
			e.Flags |= trace.FlagLoad
		case 2:
			e.Flags |= trace.FlagStore
		}
		if e.IsLoad() || e.IsStore() {
			e.MemW = 1 << (b3 & 3)
			addr += uint64(b1)
			e.Addr = addr
		}
		if b0&0x40 != 0 {
			e.Flags |= trace.FlagHasDst
			e.Dst = isa.Reg(b2 % isa.NumRegs)
		}
		if b0&0x80 != 0 {
			e.Flags |= trace.FlagCondBranch
			if b1&1 != 0 {
				e.Flags |= trace.FlagTaken
			}
		}
		e.NSrc = b3 % 3
		for k := 0; k < int(e.NSrc); k++ {
			e.Srcs[k] = isa.Reg((b1 + byte(k)) % isa.NumRegs)
		}
		tr.Entries = append(tr.Entries, e)
		tr.End = pc
	}
	return tr, tr.ComputeDeps()
}

// FuzzTraceCodec holds the codec's two contracts under arbitrary input:
// decoding never panics and rejects anything non-canonical, and every
// successful decode — plus every encode of a valid trace — round-trips
// byte-identically.
func FuzzTraceCodec(f *testing.F) {
	// Seeds: an empty input, a truncated header, real encodings of small
	// synthetic traces, and a corrupted one.
	f.Add([]byte{})
	f.Add([]byte("PFTR\x01"))
	for _, raw := range [][]byte{
		{},
		{0x41, 7, 3, 0},
		{0x45, 1, 2, 2, 0x88, 200, 31, 1, 0xc6, 9, 9, 9, 0x03, 0, 0, 0},
	} {
		tr, d := synthFromBytes(raw)
		enc, err := Encode(tr, d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(enc) > 8 {
			bad := append([]byte{}, enc...)
			bad[len(bad)/2] ^= 0x10
			f.Add(bad)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Contract 1: arbitrary bytes either decode or error — no panics —
		// and whatever decodes re-encodes to the exact input bytes.
		if tr, deps, err := Decode(data); err == nil {
			re, rerr := Encode(tr, deps)
			if rerr != nil {
				t.Fatalf("decoded stream does not re-encode: %v", rerr)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("re-encode differs from accepted input (%d vs %d bytes)", len(re), len(data))
			}
		}

		// Contract 2: every synthesizable trace round-trips exactly.
		tr, deps := synthFromBytes(data)
		enc, err := Encode(tr, deps)
		if err != nil {
			t.Fatalf("synthesized trace rejected: %v", err)
		}
		got, gotDeps, err := Decode(enc)
		if err != nil {
			t.Fatalf("synthesized encoding rejected: %v", err)
		}
		if len(got.Entries) != len(tr.Entries) || (len(tr.Entries) > 0 && !reflect.DeepEqual(got.Entries, tr.Entries)) {
			t.Fatal("entries mutated in roundtrip")
		}
		if got.End != tr.End {
			t.Fatalf("End %#x decoded as %#x", tr.End, got.End)
		}
		if !reflect.DeepEqual(gotDeps, deps) {
			t.Fatal("deps mutated in roundtrip")
		}
		re, err := Encode(got, gotDeps)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatal("re-encode not byte-identical")
		}
	})
}
