// Benchmark for distributed grid execution (the polyflowd cluster): the
// coordinator fans the Figure-9 grid out to N workers and merges the
// artifact bytes. Every worker shares the benchmark's host, so worker
// compute cannot actually scale here; instead each worker is a real
// polyflowd whose Runner answers after a modeled 100ms remote-simulation
// latency with real, precomputed artifact bytes. What the benchmark
// measures is therefore the coordinator's dispatch pipeline — ring
// placement, bounded windows, submit/poll/result over HTTP — and how cell
// throughput scales when workers are added. Byte-identity of genuinely
// simulated cells across single-node and cluster runs is proven separately
// by internal/cluster's TestClusterGridByteIdentity.
package speculate_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/jobqueue"
	"repro/internal/server"
)

// clusterGridRef simulates every grid cell once on a real local server and
// returns the artifact bytes the cluster's stub workers will serve.
func clusterGridRef(b *testing.B) map[string][]byte {
	b.Helper()
	cache, err := artifact.New(artifact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Cache: cache, Pool: jobqueue.New(jobqueue.Config{QueueDepth: 64})})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	c := &server.Client{Base: "http://" + ln.Addr().String()}

	ctx := context.Background()
	ref := make(map[string][]byte, len(gridBenches)*len(gridPolicies))
	for _, bench := range gridBenches {
		for _, policy := range gridPolicies {
			st, _, err := c.Submit(ctx, server.Request{Bench: bench, Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			fin, err := c.Wait(ctx, st.ID, time.Millisecond)
			if err != nil || fin.State != "succeeded" {
				b.Fatalf("reference %s/%s: state=%q err=%v", bench, policy, fin.State, err)
			}
			data, err := c.ResultBytes(ctx, st.ID)
			if err != nil {
				b.Fatal(err)
			}
			ref[bench+"/"+policy] = data
		}
	}
	return ref
}

// clusterCellLatency is the modeled remote-simulation time per cell. It is
// deliberately large relative to the coordinator's per-cell dispatch CPU
// (~2-3ms of HTTP submit/poll/result on this host) so the benchmark
// contrasts worker-bound against dispatch-bound operation rather than
// measuring the single shared CPU the whole cluster runs on here.
const clusterCellLatency = 100 * time.Millisecond

// startStubWorker runs a real polyflowd over HTTP whose Runner models a
// remote simulation: clusterCellLatency of sleep, then the cell's real
// artifact bytes. The worker pool is one deep — one modeled CPU per worker.
func startStubWorker(b *testing.B, ref map[string][]byte) string {
	b.Helper()
	runner := func(ctx context.Context, req server.Request, progress server.ProgressFunc) ([]byte, bool, error) {
		select {
		case <-time.After(clusterCellLatency):
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		data, ok := ref[req.Bench+"/"+req.Policy]
		if !ok {
			return nil, false, fmt.Errorf("no reference cell %s/%s", req.Bench, req.Policy)
		}
		return data, false, nil
	}
	srv, err := server.New(server.Config{
		Runner: runner,
		Pool:   jobqueue.New(jobqueue.Config{Workers: 1, QueueDepth: 64}),
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	b.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return "http://" + ln.Addr().String()
}

// BenchmarkGridCluster sweeps the 21-cell Figure-9 grid through a
// coordinator at 1 and 4 workers. With the modeled cell latency and a
// one-deep pool per worker, ideal scaling is linear in the worker count;
// the acceptance bar is >= 3x cell throughput at 4 workers.
func BenchmarkGridCluster(b *testing.B) {
	ref := clusterGridRef(b)
	cells := len(gridBenches) * len(gridPolicies)

	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			coord := cluster.New(cluster.Options{Window: 2})
			defer coord.Close()
			for i := 0; i < workers; i++ {
				if err := coord.AddWorker(startStubWorker(b, ref)); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()

			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, bench := range gridBenches {
					for _, policy := range gridPolicies {
						wg.Add(1)
						go func(bench, policy string) {
							defer wg.Done()
							data, _, err := coord.Runner()(ctx, server.Request{Bench: bench, Policy: policy}, nil)
							if err != nil {
								b.Errorf("cell %s/%s: %v", bench, policy, err)
								return
							}
							if !bytes.Equal(data, ref[bench+"/"+policy]) {
								b.Errorf("cell %s/%s: merged bytes differ from single-node reference", bench, policy)
							}
						}(bench, policy)
					}
				}
				wg.Wait()
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(cells*b.N)/elapsed.Seconds(), "cells/s")
		})
	}
}
