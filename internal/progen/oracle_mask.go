package progen

import (
	"fmt"
	"reflect"

	"repro/internal/asm"
	"repro/internal/attrib"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/trace"
)

// CheckSpawnMaskSeed generates the GenAsm program for seed and checks the
// spawn-mask subsystem against it: the mask codec round-trips canonically
// over a randomly drawn mask, a masked run completes on both schedulers
// with bit-identical results, per-site attribution still reconciles
// exactly, masked sites charge nothing, and an empty mask is bit-identical
// to no mask at all.
func CheckSpawnMaskSeed(seed uint64) error {
	return fail("mask", seed, checkSpawnMask(GenAsm(seed), seed))
}

func checkSpawnMask(src string, seed uint64) error {
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

	// Draw a random mask over the analyzed site universe: each site joins
	// with probability 1/3, so the draw covers empty, partial, and (on
	// small programs) full masks across seeds.
	r := newRNG(seed ^ 0xa5a5a5a5)
	mask := machine.NewSpawnMask()
	for _, sp := range an.Spawns {
		if r.chance(1, 3) {
			mask.Add(sp.From, uint8(sp.Kind))
		}
	}

	if err := checkMaskCodec(mask); err != nil {
		return err
	}

	// The empty mask must be bit-identical to no mask on a plain config.
	plainCfg := machine.PolyFlowConfig()
	plain, err := machine.Run(tr, nil, core.PolicyPostdoms.Source(an), plainCfg)
	if err != nil {
		return fmt.Errorf("unmasked run: %w", err)
	}
	emptyCfg := machine.PolyFlowConfig()
	emptyCfg.SpawnMask = machine.NewSpawnMask()
	empty, err := machine.Run(tr, nil, core.PolicyPostdoms.Source(an), emptyCfg)
	if err != nil {
		return fmt.Errorf("empty-mask run: %w", err)
	}
	if !reflect.DeepEqual(plain, empty) {
		return fmt.Errorf("empty mask changed the run:\nplain: %+v\nempty: %+v", plain, empty)
	}

	// Masked runs: both schedulers, attribution attached, under the plain
	// config and one stress config (ROB reclaim exercises squash paths).
	reclaim := machine.PolyFlowConfig()
	reclaim.ReclaimROB = true
	reclaim.ROBSize = 96
	reclaim.ROBReserve = 16
	for name, cfg := range map[string]machine.Config{
		"polyflow": machine.PolyFlowConfig(),
		"reclaim":  reclaim,
	} {
		cfg.SpawnMask = mask
		if err := checkMaskedPair(tr, an, name, cfg, mask); err != nil {
			return err
		}
	}
	return nil
}

// checkMaskCodec requires one canonical encoding per mask: Encode/Parse
// round-trips, and a doubled (duplicated-entry) encoding re-canonicalizes
// to the same bytes.
func checkMaskCodec(mask *machine.SpawnMask) error {
	enc := mask.Encode()
	back, err := machine.ParseSpawnMask(enc)
	if err != nil {
		return fmt.Errorf("parsing own encoding %q: %w", enc, err)
	}
	if got := back.Encode(); got != enc {
		return fmt.Errorf("codec round trip: %q -> %q", enc, got)
	}
	if back.Len() != mask.Len() {
		return fmt.Errorf("codec round trip lost entries: %d -> %d", mask.Len(), back.Len())
	}
	if enc != "" {
		dup, err := machine.ParseSpawnMask(enc + "," + enc)
		if err != nil {
			return fmt.Errorf("parsing duplicated encoding: %w", err)
		}
		if got := dup.Encode(); got != enc {
			return fmt.Errorf("duplicated entries escape canonicalization: %q -> %q", enc, got)
		}
	}
	return nil
}

// checkMaskedPair runs one masked configuration through both schedulers
// and requires bit-identical results, exact attribution reconciliation,
// and zero charges on every masked site.
func checkMaskedPair(tr *trace.Trace, an *core.Analysis, name string, cfg machine.Config, mask *machine.SpawnMask) error {
	src := core.PolicyPostdoms.Source(an)

	cfg.PolledScheduler = false
	cfg.Attribution = attrib.NewTable()
	event, err := machine.Run(tr, nil, src, cfg)
	if err != nil {
		return fmt.Errorf("%s masked event-driven run: %w", name, err)
	}
	if err := machine.VerifyAttribution(cfg.Attribution, event); err != nil {
		return fmt.Errorf("%s masked event-driven run: %w", name, err)
	}
	evTbl := cfg.Attribution

	cfg.PolledScheduler = true
	cfg.Attribution = attrib.NewTable()
	polled, err := machine.Run(tr, nil, core.PolicyPostdoms.Source(an), cfg)
	if err != nil {
		return fmt.Errorf("%s masked polled run: %w", name, err)
	}
	if err := machine.VerifyAttribution(cfg.Attribution, polled); err != nil {
		return fmt.Errorf("%s masked polled run: %w", name, err)
	}

	if !reflect.DeepEqual(event, polled) {
		return fmt.Errorf("%s: schedulers diverge under mask %q:\nevent:  %+v\npolled: %+v",
			name, mask.Encode(), event, polled)
	}

	// A masked site must have no attribution record at all — not even
	// rejection counts.
	var maskErr error
	mask.ForEach(func(pc uint64, kind uint8) {
		if maskErr != nil {
			return
		}
		if st := evTbl.Lookup(pc, kind); st != nil {
			maskErr = fmt.Errorf("%s: masked site 0x%x:%s still charged: %+v",
				name, pc, attrib.KindName(kind), *st)
		}
	})
	return maskErr
}
