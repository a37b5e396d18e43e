package artifact_test

// Cache-correctness sweep: for every workload, a cached simulation artifact
// must be byte-identical to a freshly computed one — both the machine
// Result and the polyflow-attrib/1 report. This is the end-to-end guarantee
// behind polyflowd serving cached results: a hit is indistinguishable from
// rerunning the pipeline.

import (
	"bytes"
	"context"
	"testing"

	"repro"
	"repro/internal/artifact"
	"repro/internal/attrib"
	"repro/internal/machine"
)

// computeArtifact runs the full postdoms simulation with attribution and
// encodes the artifact, exactly as polyflowd's job path does.
func computeArtifact(t *testing.T, b *speculate.Bench, key artifact.Key) []byte {
	t.Helper()
	p, ok := speculate.PolicyByName("postdoms")
	if !ok {
		t.Fatal("postdoms policy missing")
	}
	cfg := machine.PolyFlowConfig()
	tbl := attrib.NewTable()
	cfg.Attribution = tbl
	res, err := b.RunNamedContext(context.Background(), p.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.VerifyAttribution(tbl, res); err != nil {
		t.Fatal(err)
	}
	rep := attrib.NewReport(tbl, b.Name, "postdoms", res.Config, res.Cycles, res.Retired)
	data, err := artifact.EncodeSim(&artifact.SimArtifact{Key: key, Result: res, Attrib: rep})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCachedVsFreshByteIdentical(t *testing.T) {
	names := speculate.WorkloadNames()
	if len(names) != 12 {
		t.Fatalf("workloads = %d, want 12", len(names))
	}
	if testing.Short() {
		names = names[:3]
	}
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := speculate.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			key, err := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, "postdoms", machine.PolyFlowConfig())
			if err != nil {
				t.Fatal(err)
			}
			compute := func(ctx context.Context) ([]byte, error) {
				return computeArtifact(t, b, key), nil
			}

			first, hit, err := cache.GetOrCompute(context.Background(), key.Hash(), compute)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("first request reported a cache hit")
			}
			second, hit, err := cache.GetOrCompute(context.Background(), key.Hash(), compute)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("second request missed the cache")
			}
			if !bytes.Equal(first, second) {
				t.Fatal("cached artifact differs from the one stored")
			}

			// The pipeline is deterministic: recomputing from scratch must
			// reproduce the cached bytes exactly — Result and attribution
			// report included.
			fresh := computeArtifact(t, b, key)
			if !bytes.Equal(fresh, second) {
				t.Fatal("freshly computed artifact differs from cached bytes")
			}

			art, err := artifact.DecodeSim(second)
			if err != nil {
				t.Fatal(err)
			}
			if art.Result.Cycles <= 0 || art.Result.Retired <= 0 {
				t.Fatalf("implausible cached result: %+v", art.Result)
			}
			if art.Attrib == nil || art.Attrib.Schema != attrib.Schema {
				t.Fatalf("cached artifact lacks a valid attribution report")
			}
		})
	}
}
