// Benchmarks for trace preparation and the decode-once trace store: the
// emulate-check-analyze pipeline a cold load pays, trace encode and decode
// throughput, and the batched multi-policy grid against the per-cell
// baseline it replaces. BENCH_simulator.json records them (see
// docs/PERFORMANCE.md, "Trace replay").
package speculate_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// gridBenches x gridPolicies is the grid both grid benchmarks sweep: three
// representative workloads under the full Figure9 run set — the
// superscalar baseline plus the six spawn heuristics — which is what one
// workload column of the paper's evaluation actually costs.
var (
	gridBenches  = []string{"gzip", "mcf", "twolf"}
	gridPolicies = []string{"superscalar", "loop", "loopFT", "procFT", "hammock", "other", "postdoms"}
)

// BenchmarkTraceReplay measures decoding a stored polyflow-trace/1 stream
// back into a simulator-ready trace — the per-workload cost the batched
// path pays instead of functional emulation. b.SetBytes makes the decode
// bandwidth visible as MB/s.
func BenchmarkTraceReplay(b *testing.B) {
	bench, err := speculate.Load("gzip")
	if err != nil {
		b.Fatal(err)
	}
	enc, err := bench.EncodeTrace()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracestore.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLoad compares LoadCached's two decode branches on gzip's
// trace stored as a file, as the disk artifact tier holds it: eager reads
// the whole artifact into memory and decodes it in place; lazy streams it
// through the ReaderAt path without holding the serialized bytes.
func BenchmarkTraceLoad(b *testing.B) {
	bench, err := speculate.Load("gzip")
	if err != nil {
		b.Fatal(err)
	}
	enc, err := bench.EncodeTrace()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "gzip.trace")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	size := int64(len(enc))
	b.Run("eager", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			buf := make([]byte, size)
			if _, err := f.ReadAt(buf, 0); err != nil {
				b.Fatal(err)
			}
			if _, _, err := tracestore.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, _, err := tracestore.Open(f, size).Load(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceEncode measures serializing gzip's trace and dependences
// into polyflow-trace/1 — the encode half of every cold load's store.
func BenchmarkTraceEncode(b *testing.B) {
	bench, err := speculate.Load("gzip")
	if err != nil {
		b.Fatal(err)
	}
	enc, err := bench.EncodeTrace()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.EncodeTrace(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare measures gzip's full preparation from an assembled
// program: functional emulation, the architectural re-check, static
// analysis and the dependence scan.
func BenchmarkPrepare(b *testing.B) {
	w, ok := workloads.ByName("gzip")
	if !ok {
		b.Fatal("unknown workload gzip")
	}
	prog := w.Assemble()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speculate.Prepare(w.Name, prog, w.MaxInstrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble measures assembling all seventeen workloads' sources
// — the first step of every cold load, hit or miss.
func BenchmarkAssemble(b *testing.B) {
	var srcs []string
	for _, name := range speculate.AllWorkloadNames() {
		w, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %s", name)
		}
		srcs = append(srcs, w.Source)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := asm.Assemble(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridPerCell is the baseline the trace store replaces: every
// (workload, policy) cell pays its own full preparation — assemble,
// functionally emulate, analyze, scan dependences — before simulating, as
// a cold per-cell job did before traces became cacheable artifacts.
func BenchmarkGridPerCell(b *testing.B) {
	cfg := machine.PolyFlowConfig()
	for i := 0; i < b.N; i++ {
		for _, name := range gridBenches {
			w, ok := workloads.ByName(name)
			if !ok {
				b.Fatalf("unknown workload %s", name)
			}
			for _, policy := range gridPolicies {
				bench, err := speculate.Prepare(name, w.Assemble(), w.MaxInstrs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bench.RunNamedContext(context.Background(), policy, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkGridBatched is the decode-once path over the same grid: each
// workload's stored trace is decoded once per sweep and every policy
// simulates from the shared replay — no functional emulation at all.
func BenchmarkGridBatched(b *testing.B) {
	cfg := machine.PolyFlowConfig()
	encoded := make(map[string][]byte, len(gridBenches))
	for _, name := range gridBenches {
		bench, err := speculate.Load(name)
		if err != nil {
			b.Fatal(err)
		}
		enc, err := bench.EncodeTrace()
		if err != nil {
			b.Fatal(err)
		}
		encoded[name] = enc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range gridBenches {
			bench, err := speculate.LoadFromTraceData(name, encoded[name])
			if err != nil {
				b.Fatal(err)
			}
			for _, policy := range gridPolicies {
				if _, err := bench.RunNamedContext(context.Background(), policy, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
