package speculate_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/machine"
)

// TestReplayBitIdentical proves the decode-once path changes nothing:
// simulating a bench whose trace round-tripped through the polyflow-trace/1
// codec produces results bit-identical to the legacy Prepare path, for
// every workload and policy family. In -short mode a three-workload subset
// runs; the full sweep covers all 12.
func TestReplayBitIdentical(t *testing.T) {
	names := speculate.AllWorkloadNames()
	policies := []string{"superscalar", "loop", "postdoms", "rec_pred"}
	if testing.Short() {
		names = []string{"gzip", "mcf", "twolf", "quicksort"}
		policies = []string{"superscalar", "postdoms"}
	}
	for _, name := range names {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := b.EncodeTrace()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := speculate.LoadFromTraceData(name, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			pol := pol
			t.Run(name+"/"+pol, func(t *testing.T) {
				legacy, err := b.RunNamedContext(context.Background(), pol, machine.PolyFlowConfig())
				if err != nil {
					t.Fatal(err)
				}
				replay, err := rb.RunNamedContext(context.Background(), pol, machine.PolyFlowConfig())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(legacy, replay) {
					t.Errorf("replayed trace diverges from legacy path:\nlegacy: %+v\nreplay: %+v", legacy, replay)
				}
			})
		}
	}
}

// TestGridDecodesOnce asserts the batched grid's contract: with a trace
// cache attached, a multi-policy grid runs the functional emulator exactly
// once per workload, and a second grid over a warm cache runs it zero
// times — with identical results both times.
func TestGridDecodesOnce(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// One synthetic workload and one kernel: the decode-once contract must
	// hold for both families through the same grid path.
	o := harness.Options{
		Benches:    []string{"gzip", "mcf", "quicksort"},
		Policies:   []string{"loop", "postdoms"},
		TraceCache: cache,
	}

	speculate.ClearBenchCache()
	before := speculate.EmulatorRuns()
	cold, err := harness.Figure9Opts(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := speculate.EmulatorRuns() - before; got != 3 {
		t.Errorf("cold grid ran the emulator %d times, want 3 (once per workload)", got)
	}

	// Drop the in-process memo: the warm grid must be fed entirely from
	// stored trace artifacts.
	speculate.ClearBenchCache()
	before = speculate.EmulatorRuns()
	warm, err := harness.Figure9Opts(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := speculate.EmulatorRuns() - before; got != 0 {
		t.Errorf("warm grid ran the emulator %d times, want 0 (trace artifacts)", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm grid results diverge from cold grid:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestLoadCachedSources pins the provenance reporting the daemon's metrics
// build on.
func TestLoadCachedSources(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	speculate.ClearBenchCache()
	if _, src, err := speculate.LoadCached("twolf", cache); err != nil || src != speculate.LoadEmulated {
		t.Fatalf("first load: src=%v err=%v, want LoadEmulated", src, err)
	}
	if _, src, err := speculate.LoadCached("twolf", cache); err != nil || src != speculate.LoadMemoized {
		t.Fatalf("second load: src=%v err=%v, want LoadMemoized", src, err)
	}
	speculate.ClearBenchCache()
	if _, src, err := speculate.LoadCached("twolf", cache); err != nil || src != speculate.LoadTraceArtifact {
		t.Fatalf("post-clear load: src=%v err=%v, want LoadTraceArtifact", src, err)
	}
	if _, _, err := speculate.LoadCached("no-such-bench", cache); err == nil {
		t.Fatal("unknown workload loaded")
	}
}
