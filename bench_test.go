// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benchmarks for the design choices called out in DESIGN.md. Each figure
// benchmark reports the figure's headline number as a custom metric and
// logs the full text table once.
package speculate_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
)

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure5Opts(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.FormatFigure5(rows))
			total := 0
			for _, r := range rows {
				total += r.Total
			}
			b.ReportMetric(float64(total), "static-spawns")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Figure8()
		if i == 0 {
			b.Log("\n" + tab)
		}
	}
}

func benchSpeedupTable(b *testing.B, figure func(harness.Options) (*harness.SpeedupTable, error), o harness.Options) {
	for i := 0; i < b.N; i++ {
		tab, err := figure(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.Format())
			b.ReportMetric(tab.Average(len(tab.Policies)-1), "postdoms-avg-speedup-%")
		}
	}
}

// BenchmarkFigure9 regenerates the individual-heuristic comparison
// (loop, loopFT, procFT, hammock, other, postdoms over the superscalar).
func BenchmarkFigure9(b *testing.B) { benchSpeedupTable(b, harness.Figure9Opts, harness.Options{}) }

// BenchmarkFigure10 regenerates the heuristic-combination comparison.
func BenchmarkFigure10(b *testing.B) { benchSpeedupTable(b, harness.Figure10Opts, harness.Options{}) }

// BenchmarkKernelsGrid runs the individual-heuristic grid over the kernels
// workload family — the five syscall-driven programs — reporting the
// postdoms-average speedup the same way Figure 9 does for the synthetic
// twelve.
func BenchmarkKernelsGrid(b *testing.B) {
	benchSpeedupTable(b, harness.Figure9Opts, harness.Options{Family: "kernels"})
}

// BenchmarkFigure12 regenerates the reconvergence-predictor comparison.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure12Opts(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.Format())
			if row, ok := tab.PolicyRow("rec_pred"); ok {
				var avg float64
				for _, v := range row {
					avg += v
				}
				b.ReportMetric(avg/float64(len(row)), "recpred-avg-speedup-%")
			}
		}
	}
}

// BenchmarkFigure11 regenerates the leave-one-category-out losses.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure11Opts(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.Format())
			var worst float64
			for e := range tab.Exclusions {
				if a := tab.Average(e); a > worst {
					worst = a
				}
			}
			b.ReportMetric(worst, "worst-avg-loss-%")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations: each sweeps one Task Spawn Unit design parameter on a
// representative benchmark and reports the resulting IPC.

func ablate(b *testing.B, benchName string, mutate func(*machine.Config)) {
	bench, err := speculate.Load(benchName)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.PolyFlowConfig()
	mutate(&cfg)
	var ipc float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunNamedContext(context.Background(), core.PolicyPostdoms.Name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ipc = res.IPC
	}
	b.ReportMetric(ipc, "IPC")
}

// BenchmarkAblationSpawnDistance sweeps the trace bound on how far into
// the future a task may be spawned.
func BenchmarkAblationSpawnDistance(b *testing.B) {
	for _, dist := range []int{16, 32, 64, 128, 256, 512} {
		b.Run(benchmarkName("dist", dist), func(b *testing.B) {
			ablate(b, "twolf", func(c *machine.Config) { c.MaxSpawnDistance = dist })
		})
	}
}

// BenchmarkAblationTaskCount sweeps the number of task contexts (the paper
// uses 8).
func BenchmarkAblationTaskCount(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(benchmarkName("tasks", n), func(b *testing.B) {
			ablate(b, "twolf", func(c *machine.Config) { c.MaxTasks = n })
		})
	}
}

// BenchmarkAblationAnyTaskSpawn relaxes the paper's tail-task-only
// spawning rule.
func BenchmarkAblationAnyTaskSpawn(b *testing.B) {
	for _, tailOnly := range []bool{true, false} {
		name := "tail-only"
		if !tailOnly {
			name = "any-task"
		}
		b.Run(name, func(b *testing.B) {
			ablate(b, "mcf", func(c *machine.Config) { c.SpawnFromTailOnly = tailOnly })
		})
	}
}

// BenchmarkAblationMinSpawnDistance sweeps the near-spawn profitability
// filter.
func BenchmarkAblationMinSpawnDistance(b *testing.B) {
	for _, d := range []int{1, 2, 4, 8, 16} {
		b.Run(benchmarkName("min", d), func(b *testing.B) {
			ablate(b, "vpr.place", func(c *machine.Config) { c.MinSpawnDistance = d })
		})
	}
}

// BenchmarkAblationSpawnLatency sweeps the task-creation latency.
func BenchmarkAblationSpawnLatency(b *testing.B) {
	for _, l := range []int{0, 1, 2, 4, 8, 16} {
		b.Run(benchmarkName("lat", l), func(b *testing.B) {
			ablate(b, "crafty", func(c *machine.Config) { c.SpawnLatency = l })
		})
	}
}

// BenchmarkAblationMispredictPenalty sweeps the front-end depth (the
// misprediction penalty floor).
func BenchmarkAblationMispredictPenalty(b *testing.B) {
	for _, d := range []int{4, 6, 10, 14} {
		b.Run(benchmarkName("depth", d), func(b *testing.B) {
			ablate(b, "mcf", func(c *machine.Config) { c.FrontEndDepth = d })
		})
	}
}

// BenchmarkAblationHintCache sweeps the (normally unmodeled) spawn hint
// cache capacity — the idealization the paper calls out explicitly.
func BenchmarkAblationHintCache(b *testing.B) {
	for _, log2 := range []int{0, 3, 5, 8, 12} {
		b.Run(benchmarkName("log2", log2), func(b *testing.B) {
			ablate(b, "twolf", func(c *machine.Config) { c.HintCacheLog2 = log2 })
		})
	}
}

// BenchmarkAblationReclaimROB compares the head-task ROB reserve against
// the paper's future-work youngest-task reclamation, under a starved ROB.
func BenchmarkAblationReclaimROB(b *testing.B) {
	for _, reclaim := range []bool{false, true} {
		name := "reserve"
		if reclaim {
			name = "reclaim"
		}
		b.Run(name, func(b *testing.B) {
			ablate(b, "twolf", func(c *machine.Config) {
				c.ROBSize = 96
				if reclaim {
					c.ROBReserve = 0
					c.ReclaimROB = true
				}
			})
		})
	}
}

// BenchmarkSimulatorThroughput measures raw timing-model speed
// (instructions simulated per wall second are visible via ns/op against
// the per-run instruction count).
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, err := speculate.Load("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunNamedContext(context.Background(), "superscalar", machine.SuperscalarConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughputPolyFlow is BenchmarkSimulatorThroughput
// with the Task Spawn Unit on: gzip under postdoms, so the spawn, divert,
// squash and multi-task fetch paths are timed too.
func BenchmarkSimulatorThroughputPolyFlow(b *testing.B) {
	bench, err := speculate.Load("gzip")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunNamedContext(context.Background(), "postdoms", machine.PolyFlowConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisThroughput measures the static analysis pipeline plus
// the trace dependence scan (ComputeDeps), the two pre-simulation passes
// every workload pays once.
func BenchmarkAnalysisThroughput(b *testing.B) {
	bench, err := speculate.Load("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(bench.Prog, bench.Trace.IndirectTargets()); err != nil {
			b.Fatal(err)
		}
		bench.Trace.ComputeDeps()
	}
}

func benchmarkName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
