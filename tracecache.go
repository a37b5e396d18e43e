package speculate

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// LazyTraceThreshold is the artifact size, in bytes, above which LoadCached
// replays a stored trace through the tracestore's streaming ReaderAt path
// instead of materializing the serialized bytes first. Both paths size the
// decoded trace exactly; measured on gzip they cost the same time and the
// lazy one allocates less (docs/PERFORMANCE.md, "Trace replay"). Exported
// as a variable so tests can force either path.
var LazyTraceThreshold int64 = 4 << 20

// LoadSource reports where LoadCached obtained a bench's trace: the
// in-process memo, a decoded trace-store artifact, or a fresh emulator run.
type LoadSource int

const (
	// LoadMemoized: the bench was already prepared in this process.
	LoadMemoized LoadSource = iota
	// LoadTraceArtifact: the trace was decoded from a stored
	// polyflow-trace/1 artifact; the emulator did not run.
	LoadTraceArtifact
	// LoadEmulated: the functional emulator ran (and, when a cache was
	// supplied, its product was stored for the next caller).
	LoadEmulated
)

func (s LoadSource) String() string {
	switch s {
	case LoadMemoized:
		return "memoized"
	case LoadTraceArtifact:
		return "trace-artifact"
	case LoadEmulated:
		return "emulated"
	}
	return fmt.Sprintf("LoadSource(%d)", int(s))
}

// emuRuns counts functional-emulator executions process-wide; the
// decode-once tests and the daemon's metrics assert on it.
var emuRuns atomic.Int64

// EmulatorRuns returns how many times the functional emulator has run in
// this process (via Prepare, directly or through Load/LoadCached).
func EmulatorRuns() int64 { return emuRuns.Load() }

// analysisRuns counts executions of the static analysis pipeline
// (core.Analyze) process-wide; the analysis-artifact tests assert it stays
// flat on cache-warm loads.
var analysisRuns atomic.Int64

// AnalysisRuns returns how many times the full static analysis
// (postdominators, CDG, loop forest, spawn identification) has run in this
// process. Loads served from a stored polyflow-analysis/1 artifact do not
// advance it.
func AnalysisRuns() int64 { return analysisRuns.Load() }

// analyze is the package's single gateway to core.Analyze, so the counter
// above cannot drift from reality.
func analyze(prog *isa.Program, extraTargets map[uint64][]uint64) (*core.Analysis, error) {
	analysisRuns.Add(1)
	return core.Analyze(prog, extraTargets)
}

// benchEntry memoizes one workload's preparation. The once-per-name design
// lets distinct workloads prepare concurrently — a global lock held across
// Prepare would serialize the harness's parallel warm-up.
type benchEntry struct {
	once sync.Once
	b    *Bench
	src  LoadSource
	err  error
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchEntry{}
)

// ClearBenchCache drops the in-process bench memo, so the next Load
// re-prepares. Tests use it to exercise the artifact and emulation paths.
func ClearBenchCache() {
	benchMu.Lock()
	benchCache = map[string]*benchEntry{}
	benchMu.Unlock()
}

// Load prepares (and memoizes) one of the built-in workloads by name.
func Load(name string) (*Bench, error) {
	b, _, err := LoadCached(name, nil)
	return b, err
}

// LoadCached is Load backed by a trace-artifact cache: on the first call
// for a workload it fetches the stored polyflow-trace/1 artifact (skipping
// the emulator) or, on a miss, emulates and stores the product; later
// calls in the same process hit the in-memory memo. A nil cache degrades
// to plain Load. Concurrent calls for the same workload share one
// preparation; distinct workloads prepare in parallel.
func LoadCached(name string, cache *artifact.Cache) (*Bench, LoadSource, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, 0, fmt.Errorf("speculate: unknown workload %q (have %v)", name, workloads.AllNames())
	}
	benchMu.Lock()
	e := benchCache[name]
	if e == nil {
		e = &benchEntry{}
		benchCache[name] = e
	}
	benchMu.Unlock()
	ran := false
	e.once.Do(func() {
		ran = true
		e.b, e.src, e.err = prepareCached(w, cache)
	})
	if e.err != nil {
		return nil, 0, e.err
	}
	if !ran {
		return e.b, LoadMemoized, nil
	}
	return e.b, e.src, nil
}

func prepareCached(w workloads.Workload, cache *artifact.Cache) (*Bench, LoadSource, error) {
	srcSHA := w.SHA()
	prog := w.Assemble()
	var traceHash, anHash string
	if cache != nil {
		if key, err := artifact.NewTraceKey(w.Name, srcSHA, w.MaxInstrs); err == nil {
			traceHash = key.Hash()
		}
		if key, err := artifact.NewAnalysisKey(w.Name, srcSHA, w.MaxInstrs); err == nil {
			anHash = key.Hash()
		}
		if traceHash != "" {
			if b, ok := benchFromArtifacts(w, prog, cache, traceHash, anHash, srcSHA); ok {
				return b, LoadTraceArtifact, nil
			}
			// A missing or corrupt stored artifact falls through to
			// emulation; the fresh product overwrites it below.
		}
	}
	b, err := prepare(w.Name, prog, w.MaxInstrs, w.NewOS(), w.NewOS(), w.Segments(prog))
	if err != nil {
		return nil, 0, err
	}
	b.SourceSHA = srcSHA
	if cache != nil && traceHash != "" {
		if data, eerr := tracestore.Encode(b.Trace, b.Deps); eerr == nil {
			_ = cache.Put(traceHash, data) // best-effort: a store failure only costs a future re-emulation
		}
		storeAnalysis(cache, anHash, b.Analysis)
	}
	return b, LoadEmulated, nil
}

// benchFromArtifacts serves a load entirely from the artifact cache: the
// trace from its polyflow-trace/1 artifact (streamed lazily above
// LazyTraceThreshold) and, when present, the static analysis from its
// polyflow-analysis/1 artifact, skipping re-analysis. Any failure reports
// ok=false and the caller re-emulates.
func benchFromArtifacts(w workloads.Workload, prog *isa.Program, cache *artifact.Cache, traceHash, anHash, srcSHA string) (*Bench, bool) {
	h, ok, err := cache.Open(traceHash)
	if err != nil || !ok {
		return nil, false
	}
	defer h.Close()
	var tr *trace.Trace
	var deps *trace.Deps
	if h.Size() >= LazyTraceThreshold {
		tr, deps, err = tracestore.Open(h, h.Size()).Load()
	} else {
		buf := make([]byte, h.Size())
		if _, err = io.ReadFull(io.NewSectionReader(h, 0, h.Size()), buf); err == nil {
			tr, deps, err = tracestore.Decode(buf)
		}
	}
	if err != nil {
		return nil, false
	}
	if anHash != "" {
		if data, hit, gerr := cache.Get(anHash); gerr == nil && hit {
			if an, derr := core.DecodeAnalysis(prog, data); derr == nil {
				return &Bench{
					Name:      w.Name,
					Prog:      prog,
					Trace:     tr,
					Deps:      deps,
					Analysis:  an,
					SourceSHA: srcSHA,
					MaxInstrs: w.MaxInstrs,
				}, true
			}
			// A corrupt analysis artifact just costs a re-analysis below.
		}
	}
	b, ferr := FromTrace(w.Name, prog, tr, deps, w.MaxInstrs, srcSHA)
	if ferr != nil {
		return nil, false
	}
	storeAnalysis(cache, anHash, b.Analysis)
	return b, true
}

// storeAnalysis writes the analysis artifact, best-effort: a failure only
// costs a future re-analysis.
func storeAnalysis(cache *artifact.Cache, anHash string, an *core.Analysis) {
	if cache == nil || anHash == "" || an == nil {
		return
	}
	if data, err := core.EncodeAnalysis(an); err == nil {
		_ = cache.Put(anHash, data)
	}
}

// FromTrace builds a bench from an already-decoded trace and its dependence
// information, running only the static spawn-point analysis — the replay
// path behind trace artifacts and polyflow -trace-in. The trace is trusted
// to be the program's retired stream (the tracestore reader's checksums and
// cross-validation, plus content addressing, guard it); the architectural
// re-check happens once, when the trace is first produced by Prepare.
func FromTrace(name string, prog *isa.Program, tr *trace.Trace, deps *trace.Deps, maxInstrs int, sourceSHA string) (*Bench, error) {
	an, err := analyze(prog, tr.IndirectTargets())
	if err != nil {
		return nil, fmt.Errorf("speculate: analyzing %s: %w", name, err)
	}
	return &Bench{
		Name:      name,
		Prog:      prog,
		Trace:     tr,
		Deps:      deps,
		Analysis:  an,
		SourceSHA: sourceSHA,
		MaxInstrs: maxInstrs,
	}, nil
}

// LoadFromTraceData builds the named workload's bench from serialized
// polyflow-trace/1 bytes (polyflow -trace-in), skipping the emulator.
func LoadFromTraceData(name string, data []byte) (*Bench, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("speculate: unknown workload %q (have %v)", name, workloads.AllNames())
	}
	tr, deps, err := tracestore.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("speculate: decoding trace for %s: %w", name, err)
	}
	return FromTrace(w.Name, w.Assemble(), tr, deps, w.MaxInstrs, w.SHA())
}

// EncodeTrace serializes the bench's trace and dependence information in
// the polyflow-trace/1 format (polyflow -trace-out, GET /v1/traces).
func (b *Bench) EncodeTrace() ([]byte, error) {
	return tracestore.Encode(b.Trace, b.Deps)
}

// TraceBytes returns the named workload's serialized trace artifact and its
// content hash, preparing and storing it if needed. With a cache the bytes
// come from (or land in) the artifact store; without one they are encoded
// from the in-process bench.
func TraceBytes(name string, cache *artifact.Cache) ([]byte, string, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, "", fmt.Errorf("speculate: unknown workload %q (have %v)", name, workloads.AllNames())
	}
	key, err := artifact.NewTraceKey(w.Name, w.SHA(), w.MaxInstrs)
	if err != nil {
		return nil, "", err
	}
	hash := key.Hash()
	if cache != nil {
		if data, ok, gerr := cache.Get(hash); gerr == nil && ok {
			return data, hash, nil
		}
	}
	b, _, err := LoadCached(name, cache)
	if err != nil {
		return nil, "", err
	}
	if cache != nil {
		// LoadCached stored the artifact on the emulation path; a memoized
		// bench may predate the cache, so fall through to encoding.
		if data, ok, gerr := cache.Get(hash); gerr == nil && ok {
			return data, hash, nil
		}
	}
	data, err := b.EncodeTrace()
	if err != nil {
		return nil, "", err
	}
	if cache != nil {
		_ = cache.Put(hash, data)
	}
	return data, hash, nil
}
