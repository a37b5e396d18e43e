package progen

import (
	"fmt"
	"reflect"

	"repro/internal/asm"
	"repro/internal/attrib"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
)

// asmMaxInstrs caps generated-program emulation well above the generator's
// worst-case dynamic cost (asmMaxFuncs * asmFuncBudget), so hitting it
// means the termination guarantee itself is broken.
const asmMaxInstrs = 400_000

// CheckAsmSeed generates the GenAsm program for seed and drives
// it through the whole stack: assemble, emulate to halt, architectural
// replay (emu.Check), static analysis, and the graph oracles over every
// compiled function CFG.
func CheckAsmSeed(seed uint64) error {
	return fail("isa", seed, checkCompiled(GenAsm(seed), fmt.Sprintf("progen tier=isa seed=%d", seed)))
}

// checkCompiled assembles one generated source and runs the
// emulate→check→analyze oracle battery over the image.
func checkCompiled(src, label string) error {
	p, err := asm.Assemble(src)
	if err != nil {
		return fmt.Errorf("assembling generated program: %w", err)
	}
	return checkProgram(p, label)
}

// checkProgram emulates a program to halt, replays the trace through the
// architectural checker, runs the static analysis, and cross-checks the
// dominator implementations and loop-forest invariants on every compiled
// function CFG.
func checkProgram(p *isa.Program, label string) error {
	tr, err := emu.Run(p, emu.Config{MaxInstrs: asmMaxInstrs})
	if err != nil {
		return fmt.Errorf("emulating: %w", err)
	}
	if err := emu.CheckLabeled(p, tr, label); err != nil {
		return err
	}
	if _, err := core.Analyze(p, tr.IndirectTargets()); err != nil {
		return fmt.Errorf("analyzing: %w", err)
	}
	graphs, err := cfg.BuildAll(p, tr.IndirectTargets())
	if err != nil {
		return fmt.Errorf("building CFGs: %w", err)
	}
	for _, g := range graphs {
		c := &CFG{Succs: g.SuccLists(), Entry: g.Entry(), Exit: g.Exit()}
		if err := CheckCFG(c); err != nil {
			return fmt.Errorf("func 0x%x: %w", g.FuncEntry, err)
		}
	}
	return nil
}

// CheckMachineSeed generates the GenAsm program for seed and runs the
// trace through both scheduler implementations (event-driven and polled)
// under every stress configuration, requiring bit-identical Results; the
// superscalar baseline must additionally retire the whole trace.
func CheckMachineSeed(seed uint64) error {
	return fail("machine", seed, checkMachine(GenAsm(seed)))
}

func checkMachine(src string) error {
	p, err := asm.Assemble(src)
	if err != nil {
		return fmt.Errorf("assembling generated program: %w", err)
	}
	tr, err := emu.Run(p, emu.Config{MaxInstrs: asmMaxInstrs})
	if err != nil {
		return fmt.Errorf("emulating: %w", err)
	}
	an, err := core.Analyze(p, tr.IndirectTargets())
	if err != nil {
		return fmt.Errorf("analyzing: %w", err)
	}

	ss := machine.SuperscalarConfig()
	base, err := machine.Run(tr, nil, nil, ss)
	if err != nil {
		return fmt.Errorf("superscalar run: %w", err)
	}
	if base.Retired != int64(tr.Len()) {
		return fmt.Errorf("superscalar retired %d of %d trace entries", base.Retired, tr.Len())
	}

	for name, cfg := range machineStressConfigs() {
		if err := checkSchedPair(tr, an, name, cfg); err != nil {
			return err
		}
	}
	return nil
}

// CheckAttributionSeed generates the GenAsm program for seed and checks
// that per-spawn-site attribution reconciles exactly with the machine-wide
// counters on a plain PolyFlow run and again with a warmup prefix — the
// one path checkSchedPair always zeroes out.
func CheckAttributionSeed(seed uint64) error {
	return fail("attrib", seed, checkAttribution(GenAsm(seed)))
}

func checkAttribution(src string) error {
	p, err := asm.Assemble(src)
	if err != nil {
		return fmt.Errorf("assembling generated program: %w", err)
	}
	tr, err := emu.Run(p, emu.Config{MaxInstrs: asmMaxInstrs})
	if err != nil {
		return fmt.Errorf("emulating: %w", err)
	}
	an, err := core.Analyze(p, tr.IndirectTargets())
	if err != nil {
		return fmt.Errorf("analyzing: %w", err)
	}
	for _, warmup := range []int{0, tr.Len() / 4} {
		cfg := machine.PolyFlowConfig()
		cfg.WarmupInstrs = warmup
		cfg.Attribution = attrib.NewTable()
		res, err := machine.Run(tr, nil, core.PolicyPostdoms.Source(an), cfg)
		if err != nil {
			return fmt.Errorf("warmup=%d run: %w", warmup, err)
		}
		if err := machine.VerifyAttribution(cfg.Attribution, res); err != nil {
			return fmt.Errorf("warmup=%d: %w", warmup, err)
		}
	}
	return nil
}

// machineStressConfigs mirrors the hand-written differential test's
// configurations: a tiny scheduler, ROB reclaim and a short divert queue
// each exercise a different structural difference between the two
// scheduler implementations. The wide window (16 tasks, any of which may
// spawn, up to 1024 instructions ahead) spreads the in-flight indices
// furthest across the machine's slot ring.
func machineStressConfigs() map[string]machine.Config {
	tiny := machine.PolyFlowConfig()
	tiny.SchedSize = 12
	tiny.SchedReserve = 4
	tiny.NumFUs = 3

	reclaim := machine.PolyFlowConfig()
	reclaim.ReclaimROB = true
	reclaim.ROBSize = 96
	reclaim.ROBReserve = 16

	divert := machine.PolyFlowConfig()
	divert.DivertQSize = 8

	wide := machine.PolyFlowConfig()
	wide.MaxTasks = 16
	wide.MaxSpawnDistance = 1024
	wide.FetchBufPerTask = 128
	wide.SpawnFromTailOnly = false

	return map[string]machine.Config{
		"polyflow":    machine.PolyFlowConfig(),
		"tiny-sched":  tiny,
		"reclaim":     reclaim,
		"divert-8":    divert,
		"wide-window": wide,
	}
}

func checkSchedPair(tr *trace.Trace, an *core.Analysis, name string, cfg machine.Config) error {
	cfg.WarmupInstrs = 0
	src := core.PolicyPostdoms.Source(an)
	cfg.Attribution = attrib.NewTable()
	event, err := machine.Run(tr, nil, src, cfg)
	if err != nil {
		return fmt.Errorf("%s event-driven run: %w", name, err)
	}
	if err := machine.VerifyAttribution(cfg.Attribution, event); err != nil {
		return fmt.Errorf("%s event-driven run: %w", name, err)
	}
	evRep := attrib.NewReport(cfg.Attribution, "progen", "postdoms", name, event.Cycles, event.Retired)

	cfg.PolledScheduler = true
	cfg.Attribution = attrib.NewTable()
	polled, err := machine.Run(tr, nil, core.PolicyPostdoms.Source(an), cfg)
	if err != nil {
		return fmt.Errorf("%s polled run: %w", name, err)
	}
	if err := machine.VerifyAttribution(cfg.Attribution, polled); err != nil {
		return fmt.Errorf("%s polled run: %w", name, err)
	}
	poRep := attrib.NewReport(cfg.Attribution, "progen", "postdoms", name, polled.Cycles, polled.Retired)

	if !reflect.DeepEqual(event, polled) {
		return fmt.Errorf("%s: schedulers diverge:\nevent:  %+v\npolled: %+v", name, event, polled)
	}
	if !reflect.DeepEqual(evRep, poRep) {
		return fmt.Errorf("%s: schedulers attribute differently:\nevent:  %+v\npolled: %+v", name, evRep, poRep)
	}
	if event.Retired != int64(tr.Len()) {
		return fmt.Errorf("%s: retired %d of %d trace entries", name, event.Retired, tr.Len())
	}
	return nil
}
