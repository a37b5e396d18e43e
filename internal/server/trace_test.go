package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/artifact"
)

// metricValue extracts one counter from the /metrics text summary.
func metricValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		// Summary lines are "<kind> <name> <value>".
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[1] == name {
			return fields[2]
		}
	}
	t.Fatalf("metric %q absent from summary:\n%s", name, metrics)
	return ""
}

func TestDecodeOnceAcrossPolicies(t *testing.T) {
	speculate.ClearBenchCache()
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Cache: cache})
	ctx := context.Background()

	for _, policy := range []string{"postdoms", "loop"} {
		st, _, err := c.Submit(ctx, Request{Bench: "gzip", Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != "succeeded" {
			t.Fatalf("%s job state = %q (%s)", policy, fin.State, fin.Error)
		}
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "server.traces.emu_decodes"); got != "1" {
		t.Errorf("server.traces.emu_decodes = %s, want 1 (decode once, simulate many)", got)
	}
	if got := metricValue(t, metrics, "server.traces.memo_hits"); got != "1" {
		t.Errorf("server.traces.memo_hits = %s, want 1", got)
	}
}

func TestTraceEndpoint(t *testing.T) {
	speculate.ClearBenchCache()
	cache, err := artifact.New(artifact.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Cache: cache})
	ctx := context.Background()

	data, err := c.Trace(ctx, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := speculate.LoadFromTraceData("gzip", data)
	if err != nil {
		t.Fatalf("served trace does not decode: %v", err)
	}
	ref, err := speculate.Load("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b.Trace.Len() != ref.Trace.Len() {
		t.Fatalf("served trace has %d entries, want %d", b.Trace.Len(), ref.Trace.Len())
	}

	// A second fetch is served from the artifact cache, no re-emulation.
	if _, err := c.Trace(ctx, "gzip"); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "server.traces.served"); got != "2" {
		t.Errorf("server.traces.served = %s, want 2", got)
	}
	if got := metricValue(t, metrics, "server.traces.emu_decodes"); got != "1" {
		t.Errorf("server.traces.emu_decodes = %s, want 1", got)
	}

	if _, err := c.Trace(ctx, "no-such-bench"); err == nil {
		t.Fatal("unknown bench served a trace")
	}
}
