// Benchmarks for the decode-once trace store (ROADMAP item 2): raw replay
// decode throughput, and the batched multi-policy grid against the
// per-cell baseline it replaces. BENCH_simulator.json records all three —
// the batched grid must hold at least 2x over per-cell.
package speculate_test

import (
	"context"
	"testing"

	"repro"
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
