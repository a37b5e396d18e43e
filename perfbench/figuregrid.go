package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/jobqueue"
	"repro/internal/machine"
)

// figureColumns are Figure 9's columns plus Figure 12's rec_pred.
var figureColumns = []string{"superscalar", "loop", "loopFT", "procFT", "hammock", "other", "postdoms", "rec_pred"}

// columnClass groups columns by the spawn source the machine runs with.
func columnClass(col string) string {
	switch col {
	case "superscalar", "rec_pred":
		return col
	}
	return "static"
}

//go:embed reference.json
var referenceJSON []byte

// reference holds each figure-grid cell's (Cycles, Retired), keyed
// "bench/column". Regenerate with --update-reference after a change that
// is meant to move simulated results.
type reference map[string][2]int64

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reading reference.json: %w", err)
	}
	return ref, nil
}

// figureGrid regenerates the Figure 9 + rec_pred grid over every workload:
// one op is one cell, run through (*speculate.Bench).RunNamedContext on a
// jobqueue pool, as the harness's uncached cell path does. Traces are
// prepared in set-up; no artifact cache is used.
type figureGrid struct {
	benches []*speculate.Bench
	ref     reference
	pool    *jobqueue.Pool

	// From the first pass of the last window: the exact simulated outcome.
	first map[string]machine.Result
	// Bookkeeping of the last window.
	passes              []passStats
	retired, cycles     float64 // summed over every ok cell
	mallocs, allocBytes uint64  // traced window only
	stages              map[string]float64
	stageErr            error
}

// cell is one (bench, column) pair of the grid.
type cell struct {
	b   *speculate.Bench
	col string
}

// passStats is one pass's pool bookkeeping.
type passStats struct {
	wall, busy, tail time.Duration
}

func (g *figureGrid) setup(e *env, t *tracer) error {
	var err error
	if g.ref == nil {
		if g.ref, err = loadReference(); err != nil {
			return err
		}
	}
	g.benches = nil // let the previous set-up's traces go while this one prepares
	g.benches, err = prepareAll(e, t)
	return err
}

func (g *figureGrid) cells() []cell {
	var out []cell
	for _, b := range g.benches {
		for _, col := range figureColumns {
			out = append(out, cell{b, col})
		}
	}
	return out
}

func (g *figureGrid) window(e *env, t *tracer, d time.Duration, w *window) error {
	if g.pool == nil {
		g.pool = jobqueue.New(jobqueue.Config{Workers: e.workers, QueueDepth: len(g.cells())})
	}
	cells := g.cells()
	var prof *os.File
	var ms0 runtime.MemStats
	if t != nil {
		var err error
		if prof, err = os.CreateTemp(e.work, "cpu-*.pprof"); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
		runtime.ReadMemStats(&ms0)
	}
	g.retired, g.cycles, g.passes = 0, 0, nil
	start := time.Now()
	deadline := start.Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		ps, err := g.pass(e, t, cells, pass == 0, w)
		if err != nil {
			return err
		}
		g.passes = append(g.passes, ps)
		w.passDone()
	}
	w.wall = time.Since(start)
	if t != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		pprof.StopCPUProfile()
		prof.Close()
		g.mallocs, g.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		g.stages, g.stageErr = foldStages(prof.Name())
		g.fixed(e, t, cells)
	}
	return nil
}

// pass runs every cell once, in a seeded order, and waits for all of them.
func (g *figureGrid) pass(e *env, t *tracer, cells []cell, first bool, w *window) (passStats, error) {
	order := e.rng.Perm(len(cells))
	type done struct {
		start, end time.Time
		res        machine.Result
		err        error
	}
	out := make([]done, len(cells))
	lanes := make(chan int, e.workers)
	for l := 0; l < e.workers; l++ {
		lanes <- l
	}
	handles := make([]*jobqueue.Handle, 0, len(cells))
	t0 := time.Now()
	for _, k := range order {
		k := k
		c := cells[k]
		op := e.op()
		h, err := g.pool.Submit(jobqueue.Job{
			ID: "cell/" + c.b.Name + "/" + c.col,
			Fn: func(ctx context.Context) error {
				l := <-lanes
				defer func() { lanes <- l }()
				sp := t.start(lane(l), op, "cell", "machine.run."+columnClass(c.col))
				out[k].start = time.Now()
				out[k].res, out[k].err = c.b.RunNamedContext(ctx, c.col, machine.PolyFlowConfig())
				out[k].end = time.Now()
				sp.end(0)
				return nil
			},
		})
		if err != nil {
			return passStats{}, fmt.Errorf("submitting %s/%s: %w", c.b.Name, c.col, err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		h.Wait(context.Background())
	}
	ps := passStats{wall: time.Since(t0)}
	if first {
		g.first = map[string]machine.Result{}
	}
	var lastStart time.Time
	for k, c := range cells {
		o := out[k]
		key := c.b.Name + "/" + c.col
		if o.err != nil {
			w.fail("cell %s: %v", key, o.err)
			continue
		}
		if want, ok := g.ref[key]; !ok || o.res.Cycles != want[0] || o.res.Retired != want[1] {
			w.fail("cell %s: (cycles, retired) = (%d, %d), reference %v", key, o.res.Cycles, o.res.Retired, want)
			continue
		}
		dur := o.end.Sub(o.start)
		w.op(float64(dur.Microseconds())/1000, false, false)
		g.retired += float64(o.res.Retired)
		g.cycles += float64(o.res.Cycles)
		ps.busy += dur
		if o.start.After(lastStart) {
			lastStart = o.start
		}
		if first {
			g.first[key] = o.res
		}
	}
	// The first worker to go idle is the first to finish among the cells
	// still running when the last cell started.
	firstIdle := t0.Add(ps.wall)
	for k := range cells {
		o := out[k]
		if o.err == nil && !o.start.After(lastStart) && o.end.After(lastStart) && o.end.Before(firstIdle) {
			firstIdle = o.end
		}
	}
	ps.tail = t0.Add(ps.wall).Sub(firstIdle)
	return ps, nil
}

// fixed times machine.RunContext stopped after one cycle for every cell:
// arena set-up plus warmup, the per-cell cost a shared warmup would save.
func (g *figureGrid) fixed(e *env, t *tracer, cells []cell) {
	e.parallel(len(cells), func(l, i int) {
		c := cells[i]
		cfg := machine.PolyFlowConfig()
		cfg.MaxCycles = 1
		sp := t.start(lane(l), e.op(), "fixed", "machine.RunContext.fixed")
		if c.col == "superscalar" {
			// RunNamedContext rebuilds the superscalar config (dropping
			// MaxCycles), so call the machine directly with its warmup.
			ss := machine.SuperscalarConfig()
			ss.MaxCycles = 1
			ss.WarmupInstrs = min(c.b.Trace.Len()/5, 50000)
			machine.RunContext(context.Background(), c.b.Trace, c.b.Deps, nil, ss)
		} else {
			c.b.RunNamedContext(context.Background(), c.col, cfg) // stops with a MaxCycles error by design
		}
		sp.end(0)
	})
}

func (g *figureGrid) extras(w *window, m metrics) {
	var sum float64
	for _, b := range g.benches {
		sum += speculate.SpeedupPct(g.first[b.Name+"/superscalar"], g.first[b.Name+"/postdoms"])
	}
	m.set("postdoms_speedup_pct", sum/float64(len(g.benches)), "%")
	m.set("sim_minstr_per_s", g.retired/w.wall.Seconds()/1e6, "Minstr/s")
}

func (g *figureGrid) layers(e *env, tw *window, m metrics) {
	var runMS float64
	for _, ms := range tw.all {
		runMS += ms
	}
	if n := float64(len(tw.all)); n > 0 {
		m.set("machine.ns_per_instr", runMS*1e6/g.retired, "ns")
		m.set("machine.ns_per_cycle", runMS*1e6/g.cycles, "ns")
		m.set("machine.allocs_per_run", float64(g.mallocs)/n, "count")
		m.set("machine.bytes_per_run", float64(g.allocBytes)/n, "bytes")
	}
	var cyc, ret, sq, sp int64
	for _, r := range g.first {
		cyc += r.Cycles
		ret += r.Retired
		sq += r.SquashedInstrs
		sp += r.SpawnsTaken
	}
	m.set("machine.cycles", float64(cyc), "count")
	m.set("machine.retired", float64(ret), "count")
	m.set("machine.squashed_instrs", float64(sq), "count")
	m.set("machine.spawns_taken", float64(sp), "count")
	m.set("machine.useful_frac", float64(ret)/float64(ret+sq), "frac")
	var wall, busy, tail time.Duration
	for _, p := range g.passes {
		wall += p.wall
		busy += p.busy
		tail += p.tail
	}
	if n := len(g.passes); n > 0 {
		m.set("harness.busy_frac", busy.Seconds()/(wall.Seconds()*float64(e.workers)), "frac")
		m.set("harness.tail_ms", float64(tail.Microseconds())/1000/float64(n), "ms")
	}
	if g.stageErr != nil {
		fmt.Fprintln(os.Stderr, "machine.stage.* not measured:", g.stageErr)
	}
	for name, frac := range g.stages {
		m.set("machine.stage."+name+"_frac", frac, "frac")
	}
}

func (g *figureGrid) close() {
	if g.pool != nil {
		g.pool.Close()
	}
}

// writeReference prepares every workload, runs one pass and writes the
// (Cycles, Retired) of each cell as the reference table.
func (g *figureGrid) writeReference(e *env, path string) error {
	benches, err := prepareAll(e, nil)
	if err != nil {
		return err
	}
	g.benches = benches
	out := reference{}
	for _, c := range g.cells() {
		res, err := c.b.RunNamedContext(context.Background(), c.col, machine.PolyFlowConfig())
		if err != nil {
			return err
		}
		out[c.b.Name+"/"+c.col] = [2]int64{res.Cycles, res.Retired}
	}
	// One cell per line, sorted, so a regenerated table diffs cleanly.
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, " %q: [%d, %d]%s\n", k, out[k][0], out[k][1], sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
