package speculate_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// artifactHashes returns the trace and analysis artifact hashes of a
// registered workload.
func artifactHashes(t *testing.T, name string) (traceHash, anHash string) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	tk, err := artifact.NewTraceKey(w.Name, artifact.SourceSHA(w.Source), w.MaxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	ak, err := artifact.NewAnalysisKey(w.Name, artifact.SourceSHA(w.Source), w.MaxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	return tk.Hash(), ak.Hash()
}

// TestAnalysisArtifactByteIdentity pins the analysis codec's canonicality:
// the polyflow-analysis/1 artifact stored alongside a workload's trace is
// byte-identical to encoding a fresh core.Analyze result, and decoding then
// re-encoding it reproduces the same bytes. That identity is what lets a
// cell trust an analysis artifact that another process stored.
func TestAnalysisArtifactByteIdentity(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	speculate.ClearBenchCache()
	b, src, err := speculate.LoadCached("twolf", cache)
	if err != nil {
		t.Fatal(err)
	}
	if src != speculate.LoadEmulated {
		t.Fatalf("cold load source %v, want LoadEmulated", src)
	}

	_, anHash := artifactHashes(t, "twolf")
	stored, ok, err := cache.Get(anHash)
	if err != nil || !ok {
		t.Fatalf("analysis artifact not stored (ok=%v err=%v)", ok, err)
	}
	fresh, err := core.EncodeAnalysis(b.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, fresh) {
		t.Errorf("stored analysis artifact differs from freshly encoded analysis (%d vs %d bytes)", len(stored), len(fresh))
	}

	dec, err := core.DecodeAnalysis(b.Prog, stored)
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.EncodeAnalysis(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, stored) {
		t.Errorf("decode→re-encode of analysis artifact is not byte-identical (%d vs %d bytes)", len(re), len(stored))
	}
}

// TestAnalysisArtifactSkipsReanalysis asserts the cache-warm contract: a
// load served from stored artifacts runs neither the emulator nor the
// static analysis, and simulates identically to the cold-path bench.
func TestAnalysisArtifactSkipsReanalysis(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	speculate.ClearBenchCache()
	cold, src, err := speculate.LoadCached("mcf", cache)
	if err != nil {
		t.Fatal(err)
	}
	if src != speculate.LoadEmulated {
		t.Fatalf("cold load source %v, want LoadEmulated", src)
	}

	speculate.ClearBenchCache()
	beforeAn, beforeEmu := speculate.AnalysisRuns(), speculate.EmulatorRuns()
	warm, src, err := speculate.LoadCached("mcf", cache)
	if err != nil {
		t.Fatal(err)
	}
	if src != speculate.LoadTraceArtifact {
		t.Fatalf("warm load source %v, want LoadTraceArtifact", src)
	}
	if got := speculate.AnalysisRuns() - beforeAn; got != 0 {
		t.Errorf("warm load ran the static analysis %d times, want 0 (analysis artifact)", got)
	}
	if got := speculate.EmulatorRuns() - beforeEmu; got != 0 {
		t.Errorf("warm load ran the emulator %d times, want 0", got)
	}

	coldRes, err := cold.RunNamedContext(context.Background(), "postdoms", machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.RunNamedContext(context.Background(), "postdoms", machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Errorf("artifact-served bench diverges from cold bench:\ncold: %+v\nwarm: %+v", coldRes, warmRes)
	}
}

// TestLazyTraceReplayBitIdentity proves the size-gated lazy ReaderAt path
// in LoadCached is an implementation detail: a bench loaded through it
// re-encodes to the exact stored artifact bytes and simulates identically
// to one loaded through the eager in-memory decode.
func TestLazyTraceReplayBitIdentity(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func(v int64) { speculate.LazyTraceThreshold = v }(speculate.LazyTraceThreshold)

	speculate.ClearBenchCache()
	if _, src, err := speculate.LoadCached("twolf", cache); err != nil || src != speculate.LoadEmulated {
		t.Fatalf("cold load: src=%v err=%v", src, err)
	}

	speculate.LazyTraceThreshold = 1 << 62 // force the eager decode
	speculate.ClearBenchCache()
	eager, src, err := speculate.LoadCached("twolf", cache)
	if err != nil || src != speculate.LoadTraceArtifact {
		t.Fatalf("eager warm load: src=%v err=%v", src, err)
	}

	speculate.LazyTraceThreshold = 1 // force the lazy ReaderAt path
	speculate.ClearBenchCache()
	lazy, src, err := speculate.LoadCached("twolf", cache)
	if err != nil || src != speculate.LoadTraceArtifact {
		t.Fatalf("lazy warm load: src=%v err=%v", src, err)
	}

	traceHash, _ := artifactHashes(t, "twolf")
	stored, ok, err := cache.Get(traceHash)
	if err != nil || !ok {
		t.Fatalf("trace artifact not stored (ok=%v err=%v)", ok, err)
	}
	enc, err := lazy.EncodeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, stored) {
		t.Errorf("lazily loaded trace re-encodes to %d bytes differing from the %d-byte stored artifact", len(enc), len(stored))
	}

	eagerRes, err := eager.RunNamedContext(context.Background(), "postdoms", machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	lazyRes, err := lazy.RunNamedContext(context.Background(), "postdoms", machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eagerRes, lazyRes) {
		t.Errorf("lazy-path bench diverges from eager-path bench:\neager: %+v\nlazy: %+v", eagerRes, lazyRes)
	}
}

// TestLazyTraceAllocationGuard is the perf contract behind the size gate:
// the lazy path must not materialize the serialized artifact, so a warm
// load of gzip (the largest trace) must allocate at least half the
// artifact's size less than the eager path, which copies the full payload
// into memory before decoding.
func TestLazyTraceAllocationGuard(t *testing.T) {
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func(v int64) { speculate.LazyTraceThreshold = v }(speculate.LazyTraceThreshold)

	speculate.ClearBenchCache()
	if _, src, err := speculate.LoadCached("gzip", cache); err != nil || src != speculate.LoadEmulated {
		t.Fatalf("cold load: src=%v err=%v", src, err)
	}
	traceHash, _ := artifactHashes(t, "gzip")
	h, ok, err := cache.Open(traceHash)
	if err != nil || !ok {
		t.Fatalf("trace artifact not stored (ok=%v err=%v)", ok, err)
	}
	size := h.Size()
	h.Close()

	measure := func(threshold int64) uint64 {
		speculate.LazyTraceThreshold = threshold
		speculate.ClearBenchCache()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, src, err := speculate.LoadCached("gzip", cache); err != nil || src != speculate.LoadTraceArtifact {
			t.Fatalf("warm load: src=%v err=%v", src, err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}

	eager := measure(1 << 62)
	lazy := measure(1)
	if want := uint64(size / 2); eager < lazy || eager-lazy < want {
		t.Errorf("lazy path saved %d bytes of allocation over eager (eager=%d lazy=%d), want at least %d (half the %d-byte artifact)",
			int64(eager)-int64(lazy), eager, lazy, want, size)
	}
}
