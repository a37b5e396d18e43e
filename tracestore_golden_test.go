package speculate_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// goldenTrace deterministically builds the fixture trace: a fixed xorshift
// stream drives 10000 entries (spanning three entry frames) through every
// entry shape — loads, stores, branches, calls, 0/1/2 sources, forward and
// backward control flow. Each entry picks the PC retired after it, which
// is the next entry's PC or, after the last, End. The encoded bytes are
// pinned on disk and by digest, so the stream this generates must never
// change.
func goldenTrace() (*trace.Trace, *trace.Deps) {
	tr := &trace.Trace{}
	pc := uint64(0x4000)
	addr := uint64(0x2_0000)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 10000; i++ {
		r := next()
		e := trace.Entry{PC: pc, Op: isa.Op(r >> 8)}
		switch r & 7 {
		case 0, 1, 2, 3:
			pc += isa.InstSize
		case 4:
			pc += isa.InstSize * (2 + (r>>16)%64)
			e.Flags |= trace.FlagCondBranch | trace.FlagTaken
		case 5:
			pc = 0x4000 + isa.InstSize*((r>>16)%512)
			e.Flags |= trace.FlagCall
		case 6:
			pc = 0x4000 + isa.InstSize*((r>>16)%512)
			e.Flags |= trace.FlagReturn
		case 7:
			pc += isa.InstSize
			e.Flags |= trace.FlagCondBranch
		}
		switch (r >> 3) & 3 {
		case 1:
			e.Flags |= trace.FlagLoad
		case 2:
			e.Flags |= trace.FlagStore
		}
		if e.IsLoad() || e.IsStore() {
			e.MemW = 1 << ((r >> 24) & 3)
			addr = 0x2_0000 + (r>>32)%65536
			e.Addr = addr
		}
		if r&(1<<5) != 0 {
			e.Flags |= trace.FlagHasDst
			e.Dst = isa.Reg((r >> 40) % isa.NumRegs)
		}
		e.NSrc = uint8((r >> 48) % 3)
		for k := 0; k < int(e.NSrc); k++ {
			e.Srcs[k] = isa.Reg((r>>(50+6*k))%isa.NumRegs) % isa.NumRegs
		}
		tr.Entries = append(tr.Entries, e)
	}
	tr.End = pc
	return tr, tr.ComputeDeps()
}

// goldenDigest pins the fixture's SHA-256. A mismatch means the on-disk
// format changed: bump tracestore's version byte and Schema, regenerate the
// fixture with -update-tracestore-golden, and note the break in
// docs/PERFORMANCE.md — never silently re-pin.
const goldenDigest = "42d02a5d7c5d3dcc74d18673ad00e90e01109591dc38f36fd9a82191f6047542"

var goldenPath = filepath.Join("testdata", "tracestore", "golden.trace")

func TestTraceFormatGolden(t *testing.T) {
	tr, deps := goldenTrace()
	enc, err := tracestore.Encode(tr, deps)
	if err != nil {
		t.Fatal(err)
	}

	if os.Getenv("UPDATE_TRACESTORE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		t.Fatalf("fixture regenerated (%d bytes); update goldenDigest to %s and re-run",
			len(enc), hex.EncodeToString(sum[:]))
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with UPDATE_TRACESTORE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding differs from pinned fixture: the polyflow-trace format changed; bump the version byte and Schema in internal/tracestore before regenerating")
	}
	sum := sha256.Sum256(want)
	if got := hex.EncodeToString(sum[:]); got != goldenDigest {
		t.Fatalf("fixture digest %s != pinned %s", got, goldenDigest)
	}

	// The pinned bytes must keep decoding to exactly the generator's trace.
	dec, decDeps, err := tracestore.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Entries) != len(tr.Entries) || dec.End != tr.End {
		t.Fatalf("fixture decodes to %d entries ending at %#x, want %d ending at %#x", len(dec.Entries), dec.End, len(tr.Entries), tr.End)
	}
	for i := range tr.Entries {
		if dec.Entries[i] != tr.Entries[i] {
			t.Fatalf("fixture entry %d differs", i)
		}
	}
	if len(decDeps.MemProd) != len(deps.MemProd) {
		t.Fatal("fixture deps length differs")
	}
}

var workloadDigestsPath = filepath.Join("testdata", "tracestore", "workloads.sha256")

// TestWorkloadTraceDigests extends byte identity beyond the synthetic
// fixture: every registered workload's emulated trace must encode to the
// pinned SHA-256 (one "name digest" line per workload) and decode back to
// the same entries and dependences. The encoder writes the occurrence
// section from whatever index the trace carries, so the pins hold for all
// three sources: none yet (built for the call), one built in
// first-retirement order (after a NextOccurrence call), and one restored
// by a decode, PCs ascending. Set UPDATE_TRACESTORE_GOLDEN=1 to rewrite
// the pins — only alongside a deliberate format change.
func TestWorkloadTraceDigests(t *testing.T) {
	var got strings.Builder
	for _, name := range speculate.AllWorkloadNames() {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := tracestore.Encode(&trace.Trace{Entries: b.Trace.Entries, End: b.Trace.End}, b.Deps)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		fmt.Fprintf(&got, "%s %s\n", name, hex.EncodeToString(sum[:]))

		dec, deps, err := tracestore.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(dec.Entries, b.Trace.Entries) || dec.End != b.Trace.End {
			t.Errorf("%s: decoded entries differ from the emulated trace", name)
		}
		if !reflect.DeepEqual(deps, b.Deps) {
			t.Errorf("%s: decoded dependences differ from ComputeDeps", name)
		}
		built := &trace.Trace{Entries: b.Trace.Entries, End: b.Trace.End}
		built.NextOccurrence(b.Trace.Entries[0].PC, 0)
		for source, tr := range map[string]*trace.Trace{"decoded": dec, "built": built} {
			if re, err := tracestore.Encode(tr, deps); err != nil || !bytes.Equal(re, enc) {
				t.Errorf("%s: encoding with a %s index differs (err %v)", name, source, err)
			}
		}
	}

	if os.Getenv("UPDATE_TRACESTORE_GOLDEN") != "" {
		if err := os.WriteFile(workloadDigestsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("workload digests regenerated; re-run without UPDATE_TRACESTORE_GOLDEN")
	}
	want, err := os.ReadFile(workloadDigestsPath)
	if err != nil {
		t.Fatalf("reading pins (regenerate with UPDATE_TRACESTORE_GOLDEN=1): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("workload trace encodings differ from the pins:\ngot:\n%swant:\n%s", got.String(), want)
	}
}
