// Golden-file test: a tiny deterministic workload's Chrome trace export
// must be byte-stable, valid JSON, and carry monotonically non-decreasing
// ts fields — the properties Perfetto's loader relies on.
//
// Regenerate with:  go test ./internal/telemetry -run Golden -update
package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyProgram is a hammock inside a short loop: hard branches force
// mispredicts, the postdoms policy spawns at the join, and stores feed a
// later load so the timeline shows real machine behaviour.
const tinyProgram = `
        .func main
main:   li   $s7, 2463534242    # xorshift state
        li   $t9, 400           # iterations
loop:   sll  $t0, $s7, 13
        xor  $s7, $s7, $t0
        srl  $t0, $s7, 7
        xor  $s7, $s7, $t0
        sll  $t0, $s7, 17
        xor  $s7, $s7, $t0
        andi $t1, $s7, 1
        beq  $t1, $zero, els    # hard 50/50 branch
        addi $s0, $s0, 3
        sw   $s0, 0($gp)
        j    join
els:    addi $s0, $s0, 5
        lw   $t2, 0($gp)
        sub  $s1, $t2, $s0
join:   andi $s1, $s1, 0xffff
        addi $t9, $t9, -1
        bgtz $t9, loop
        halt
`

func exportTinyTrace(t *testing.T) []byte {
	t.Helper()
	prog, err := speculate.Assemble(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := speculate.Prepare("tiny", prog, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(telemetry.Config{TraceEvents: telemetry.DefaultTraceEvents})
	cfg := machine.PolyFlowConfig()
	cfg.Telemetry = col
	res, err := bench.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpawnsTaken == 0 || res.Mispredicts == 0 {
		t.Fatalf("tiny workload too tame for a meaningful trace: %+v", res.Stats)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf, res.Config); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChromeTraceGolden(t *testing.T) {
	got := exportTinyTrace(t)

	// Structural validity first: decodes, and ts never goes backwards.
	var dt struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &dt); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(dt.TraceEvents) < 10 {
		t.Fatalf("implausibly small trace: %d events", len(dt.TraceEvents))
	}
	last := int64(-1)
	sliceEvents := 0
	for i, e := range dt.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.TS < last {
			t.Fatalf("event %d (%q): ts %d < previous %d", i, e.Name, e.TS, last)
		}
		last = e.TS
		if e.Ph == "X" {
			sliceEvents++
		}
	}
	if sliceEvents == 0 {
		t.Fatalf("no task slices in the trace")
	}

	golden := filepath.Join("testdata", "tiny_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace export differs from golden (len %d vs %d); if the machine "+
			"model changed intentionally, regenerate with -update", len(got), len(want))
	}
}

// TestChromeTraceDeterministic double-checks the golden's premise: two
// exports of the same run are byte-identical.
func TestChromeTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate simulation")
	}
	a := exportTinyTrace(t)
	b := exportTinyTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("trace export is nondeterministic")
	}
}
