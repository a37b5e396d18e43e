package artifact

import (
	"errors"
	"testing"

	"repro/internal/machine"
)

func TestTraceKeyHashStable(t *testing.T) {
	k1, err := NewTraceKey("gzip", "abc123", 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := NewTraceKey("gzip", "abc123", 1_500_000)
	if k1.Hash() != k2.Hash() {
		t.Fatal("identical trace keys hash differently")
	}
	for _, other := range []WorkloadKey{
		{Schema: TraceKeySchema, Workload: "mcf", SourceSHA: "abc123", MaxInstrs: 1_500_000},
		{Schema: TraceKeySchema, Workload: "gzip", SourceSHA: "def456", MaxInstrs: 1_500_000},
		{Schema: TraceKeySchema, Workload: "gzip", SourceSHA: "abc123", MaxInstrs: 1},
	} {
		if other.Hash() == k1.Hash() {
			t.Fatalf("distinct key %+v collides", other)
		}
	}
}

func TestTraceKeyUncacheable(t *testing.T) {
	if _, err := NewTraceKey("gzip", "", 100); !errors.Is(err, ErrUncacheable) {
		t.Fatalf("empty source hash: got %v, want ErrUncacheable", err)
	}
}

func TestTraceKeyDisjointFromSimKey(t *testing.T) {
	// The same semantic inputs must address different artifacts for the
	// trace product and any simulation product.
	tk, err := NewTraceKey("gzip", "abc123", 100)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSimKey("gzip", "abc123", 100, "postdoms", machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Hash() == sk.Hash() {
		t.Fatal("trace key collides with sim key")
	}
}

// TestWorkloadKeyHashesPinned pins the trace and analysis key hashes of one
// fixed input. Stored traces and analyses are addressed by these hashes, so
// they must not move without a schema bump.
func TestWorkloadKeyHashesPinned(t *testing.T) {
	tk, err := NewTraceKey("gzip", "abc123", 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	ak, err := NewAnalysisKey("gzip", "abc123", 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tk.Hash(), "1523e3f3ad7b56384e434d8ce10e5990d7f8ff9bad892957dc5ab5872c973953"; got != want {
		t.Errorf("trace key hash = %s, want %s", got, want)
	}
	if got, want := ak.Hash(), "196cbc61c2015c139eb2b6c2329d19e5047c23feb60fe67a0123c28d2e512661"; got != want {
		t.Errorf("analysis key hash = %s, want %s", got, want)
	}
}

// TestKeySchemaBumped guards the v3 fingerprint layout: a v2 sim entry was
// keyed by a different Config encoding and must miss, not be served.
func TestKeySchemaBumped(t *testing.T) {
	if KeySchema != "polyflow-sim-key/3" {
		t.Fatalf("KeySchema = %q, want polyflow-sim-key/3", KeySchema)
	}
}
