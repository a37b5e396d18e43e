package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// warmRounds is how many times each cold-start pass reopens the cache and
// loads every workload from disk. Two warm rounds per cold round put the
// median op inside the hits and the 90th percentile inside the misses.
const warmRounds = 2

// coldStart measures the first -cache-dir run against the ones after it.
// Each pass opens a fresh artifact cache on a new directory and loads all
// workloads through speculate.LoadCached (misses: emulate, check, analyze,
// deps, trace encode, disk put), then reopens a fresh cache on the same
// directory warmRounds times and loads them again (hits: open, trace
// decode, analysis decode).
type coldStart struct {
	names []string
	// ref holds each workload's trace and analysis artifact digests, from
	// the plain emulation path in set-up.
	ref map[string][2][32]byte
}

func (c *coldStart) setup(e *env, t *tracer) error {
	c.names = speculate.AllWorkloadNames()
	benches, err := prepareAll(e, nil)
	if err != nil {
		return err
	}
	c.ref = map[string][2][32]byte{}
	for _, b := range benches {
		tb, ab, err := encodeBench(b.Trace, b.Deps, b.Analysis)
		if err != nil {
			return err
		}
		c.ref[b.Name] = [2][32]byte{sha256.Sum256(tb), sha256.Sum256(ab)}
	}
	speculate.ClearBenchCache()
	return nil
}

func encodeBench(tr *trace.Trace, deps *trace.Deps, an *core.Analysis) ([]byte, []byte, error) {
	tb, err := tracestore.Encode(tr, deps)
	if err != nil {
		return nil, nil, err
	}
	ab, err := core.EncodeAnalysis(an)
	return tb, ab, err
}

func (c *coldStart) window(e *env, t *tracer, d time.Duration, w *window) error {
	start := time.Now()
	deadline := start.Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		dir := filepath.Join(e.work, fmt.Sprintf("cache-%d", pass))
		if err := c.pass(e, t, dir, w); err != nil {
			return err
		}
		w.passDone()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	w.wall = time.Since(start)
	return nil
}

// pass runs one cold round and warmRounds warm rounds on dir.
func (c *coldStart) pass(e *env, t *tracer, dir string, w *window) error {
	for round := 0; round <= warmRounds; round++ {
		cache, err := artifact.New(artifact.Options{Dir: dir})
		if err != nil {
			return err
		}
		speculate.ClearBenchCache()
		miss := round == 0
		order := e.rng.Perm(len(c.names))
		e.parallel(len(order), func(l, i int) {
			name := c.names[order[i]]
			t0 := time.Now()
			var tr *trace.Trace
			var deps *trace.Deps
			var an *core.Analysis
			var hit bool
			var err error
			if t == nil {
				var b *speculate.Bench
				var src speculate.LoadSource
				b, src, err = speculate.LoadCached(name, cache)
				if err == nil {
					tr, deps, an, hit = b.Trace, b.Deps, b.Analysis, src == speculate.LoadTraceArtifact
				}
			} else {
				tr, deps, an, hit, err = loadTraced(t, lane(l), e.op(), name, cache)
			}
			lat := time.Since(t0)
			if err != nil {
				w.fail("load %s: %v", name, err)
				return
			}
			if hit == miss {
				w.fail("load %s: served from the artifact cache=%v in the %s round", name, hit, roundName(miss))
				return
			}
			if err := c.check(name, miss, cache, tr, deps, an); err != nil {
				w.fail("load %s (%s round): %v", name, roundName(miss), err)
				return
			}
			w.op(float64(lat.Microseconds())/1000, true, hit)
		})
	}
	return nil
}

func roundName(miss bool) string {
	if miss {
		return "cold"
	}
	return "warm"
}

// check holds a load to the reference digests: on a miss, the artifacts
// it stored; on a hit, the trace and analysis it decoded, re-encoded.
func (c *coldStart) check(name string, miss bool, cache *artifact.Cache, tr *trace.Trace, deps *trace.Deps, an *core.Analysis) error {
	var tb, ab []byte
	if miss {
		w, _ := workloads.ByName(name)
		th, ah, err := artifactHashes(w)
		if err != nil {
			return err
		}
		var ok1, ok2 bool
		tb, ok1, _ = cache.Get(th)
		ab, ok2, _ = cache.Get(ah)
		if !ok1 || !ok2 {
			return errors.New("miss did not store its trace and analysis artifacts")
		}
	} else {
		var err error
		if tb, ab, err = encodeBench(tr, deps, an); err != nil {
			return err
		}
	}
	ref := c.ref[name]
	if sha256.Sum256(tb) != ref[0] {
		return errors.New("trace artifact bytes differ from the reference encoding")
	}
	if sha256.Sum256(ab) != ref[1] {
		return errors.New("analysis artifact bytes differ from the reference encoding")
	}
	return nil
}

func artifactHashes(w workloads.Workload) (traceHash, anHash string, err error) {
	sha := w.SHA()
	tk, err := artifact.NewTraceKey(w.Name, sha, w.MaxInstrs)
	if err != nil {
		return "", "", err
	}
	ak, err := artifact.NewAnalysisKey(w.Name, sha, w.MaxInstrs)
	if err != nil {
		return "", "", err
	}
	return tk.Hash(), ak.Hash(), nil
}

// loadTraced is speculate.LoadCached's cache path with a span around each
// layer call, made in the same order: assemble; open the stored trace and
// decode it (lazily at or above speculate.LazyTraceThreshold), then decode
// the stored analysis; or, when the trace is not stored, emulate, check,
// analyze, scan dependences, encode and put both artifacts.
func loadTraced(t *tracer, ln string, op int64, name string, cache *artifact.Cache) (tr *trace.Trace, deps *trace.Deps, an *core.Analysis, hit bool, err error) {
	w, _ := workloads.ByName(name)
	th, ah, err := artifactHashes(w)
	if err != nil {
		return nil, nil, nil, false, err
	}
	sp := t.start(ln, op, "load", "workloads.Workload.Assemble")
	prog := w.Assemble()
	sp.end(0)
	sp = t.start(ln, op, "load", "artifact.Cache.Open")
	h, ok, err := cache.Open(th)
	if err != nil || !ok {
		sp.name = "artifact.Cache.Open.miss"
		sp.end(0)
		return emulateTraced(t, ln, op, w, prog, cache, th, ah)
	}
	sp.end(0)
	defer h.Close()
	if tr, deps, err = decodeTraced(t, ln, op, h); err != nil {
		return nil, nil, nil, false, err
	}
	sp = t.start(ln, op, "load", "artifact.Cache.Get")
	data, ok, err := cache.Get(ah)
	sp.end(0)
	if err != nil || !ok {
		return nil, nil, nil, false, fmt.Errorf("analysis artifact missing beside its trace (err %v)", err)
	}
	sp = t.start(ln, op, "load", "core.DecodeAnalysis")
	an, err = core.DecodeAnalysis(prog, data)
	sp.end(0)
	return tr, deps, an, true, err
}

// decodeTraced decodes a stored trace the way speculate does: a streaming
// Load through the handle at or above LazyTraceThreshold, otherwise one
// read of the whole artifact and an in-place Decode. Each span covers the
// read too, so the two paths compare handle to decoded trace.
func decodeTraced(t *tracer, ln string, op int64, h *artifact.Handle) (*trace.Trace, *trace.Deps, error) {
	size := h.Size()
	if size >= speculate.LazyTraceThreshold {
		sp := t.start(ln, op, "load", "tracestore.Reader.Load")
		tr, deps, err := tracestore.Open(h, size).Load()
		sp.end(float64(size))
		return tr, deps, err
	}
	sp := t.start(ln, op, "load", "tracestore.Decode")
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(h, 0, size), buf); err != nil {
		return nil, nil, err
	}
	tr, deps, err := tracestore.Decode(buf)
	sp.end(float64(size))
	return tr, deps, err
}

// emulateTraced is the miss path: prepare, then store both artifacts.
func emulateTraced(t *tracer, ln string, op int64, w workloads.Workload, prog *isa.Program, cache *artifact.Cache, th, ah string) (*trace.Trace, *trace.Deps, *core.Analysis, bool, error) {
	b, err := prepareProgTraced(t, ln, op, "load", w, prog)
	if err != nil {
		return nil, nil, nil, false, err
	}
	sp := t.start(ln, op, "load", "tracestore.Encode")
	data, err := tracestore.Encode(b.Trace, b.Deps)
	sp.end(float64(len(data)))
	if err != nil {
		return nil, nil, nil, false, err
	}
	sp = t.start(ln, op, "load", "artifact.Cache.Put")
	err = cache.Put(th, data)
	sp.end(0)
	if err != nil {
		return nil, nil, nil, false, err
	}
	sp = t.start(ln, op, "load", "core.EncodeAnalysis")
	adata, err := core.EncodeAnalysis(b.Analysis)
	sp.end(0)
	if err != nil {
		return nil, nil, nil, false, err
	}
	sp = t.start(ln, op, "load", "artifact.Cache.Put")
	err = cache.Put(ah, adata)
	sp.end(0)
	return b.Trace, b.Deps, b.Analysis, false, err
}

func (c *coldStart) extras(w *window, m metrics) { splitExtras(m, w) }

func (c *coldStart) layers(e *env, tw *window, m metrics) {}

func (c *coldStart) close() {}
