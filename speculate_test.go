package speculate

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nosuchbench"); err == nil {
		t.Fatalf("unknown workload loaded")
	}
}

func TestLoadMemoizes(t *testing.T) {
	b1, err := Load("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Load("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatalf("Load did not memoize")
	}
	if b1.Trace.Len() == 0 || len(b1.Analysis.Spawns) == 0 || b1.Deps == nil {
		t.Fatalf("bench not fully prepared")
	}
}

func TestAssembleAndPrepare(t *testing.T) {
	p, err := Assemble(`
        li   $t9, 500
loop:   andi $t0, $t9, 3
        beq  $t0, $zero, els
        addi $s0, $s0, 1
        j    join
els:    addi $s0, $s0, 2
join:   addi $t9, $t9, -1
        bgtz $t9, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare("mini", p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base.Retired != res.Retired {
		t.Fatalf("retire counts differ: %d vs %d", base.Retired, res.Retired)
	}
	rec, err := b.RunNamedContext(context.Background(), "rec_pred", machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Retired != base.Retired {
		t.Fatalf("rec_pred retire count differs")
	}
}

func TestSpeedupAndLossMetrics(t *testing.T) {
	base := machine.Result{Cycles: 200, IPC: 1.0}
	fast := machine.Result{Cycles: 100, IPC: 2.0}
	if got := SpeedupPct(base, fast); got != 100 {
		t.Fatalf("SpeedupPct = %f, want 100", got)
	}
	if got := SpeedupPct(base, base); got != 0 {
		t.Fatalf("SpeedupPct(self) = %f", got)
	}
	excl := machine.Result{Cycles: 160, IPC: 1.25}
	if got := LossPct(base, fast, excl); got != 75 {
		t.Fatalf("LossPct = %f, want 75", got)
	}
	if SpeedupPct(base, machine.Result{}) != 0 || LossPct(machine.Result{}, fast, excl) != 0 {
		t.Fatalf("zero-guard metrics wrong")
	}
}

func TestWorkloadNamesOrder(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 12 || names[0] != "bzip2" || names[8] != "twolf" {
		t.Fatalf("workload names wrong: %v", names)
	}
}

func TestDefaultWarmupBounds(t *testing.T) {
	b, err := Load("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w := b.defaultWarmup()
	if w <= 0 || w > 50000 || w > b.Trace.Len() {
		t.Fatalf("warmup = %d for trace %d", w, b.Trace.Len())
	}
}
