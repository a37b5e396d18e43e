package speculate_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/attrib"
	"repro/internal/machine"
)

// TestEmptySpawnMaskDifferential proves the spawn-mask hook costs nothing
// when unused: every workload, under both PolyFlow policy families and
// both schedulers, must produce byte-identical results and attribution
// reports whether Config.SpawnMask is nil or an attached-but-empty mask.
// This is the contract that let the mask land inside the Task Spawn Unit's
// hot path without re-validating the paper figures.
func TestEmptySpawnMaskDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("empty-mask differential sweep is slow")
	}
	policies := []string{"postdoms", "rec_pred"}
	for _, name := range speculate.WorkloadNames() {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			for _, polled := range []bool{false, true} {
				pol, polled := pol, polled
				sched := "event"
				if polled {
					sched = "polled"
				}
				t.Run(name+"/"+pol+"/"+sched, func(t *testing.T) {
					run := func(mask *machine.SpawnMask) (machine.Result, *attrib.Report) {
						cfg := machine.PolyFlowConfig()
						cfg.PolledScheduler = polled
						cfg.SpawnMask = mask
						cfg.Attribution = attrib.NewTable()
						res, err := b.RunNamedContext(context.Background(), pol, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := machine.VerifyAttribution(cfg.Attribution, res); err != nil {
							t.Fatal(err)
						}
						return res, attrib.NewReport(cfg.Attribution, name, pol, res.Config, res.Cycles, res.Retired)
					}
					base, baseRep := run(nil)
					masked, maskedRep := run(machine.NewSpawnMask())
					if !reflect.DeepEqual(base, masked) {
						t.Errorf("empty mask changed the run:\nnil:   %+v\nempty: %+v", base, masked)
					}
					if !reflect.DeepEqual(baseRep, maskedRep) {
						t.Errorf("empty mask changed attribution:\nnil:   %+v\nempty: %+v", baseRep, maskedRep)
					}
				})
			}
		}
	}
}

// TestNonEmptySpawnMaskAttribution masks each workload's busiest postdoms
// spawn site and requires the attribution contract to hold exactly: the
// report still reconciles with the machine counters, and the masked site
// has no record at all. Only a slice of workloads runs here — the progen
// fuzz wall (FuzzSpawnMask) covers the property over generated programs.
func TestNonEmptySpawnMaskAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("masked attribution sweep is slow")
	}
	for _, name := range []string{"gzip", "twolf", "mcf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := speculate.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.PolyFlowConfig()
			cfg.Attribution = attrib.NewTable()
			res, err := b.RunNamedContext(context.Background(), "postdoms", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := machine.VerifyAttribution(cfg.Attribution, res); err != nil {
				t.Fatal(err)
			}
			var pc uint64
			var kind uint8
			var most int64 = -1
			cfg.Attribution.ForEach(func(p uint64, k uint8, st *attrib.SiteStats) {
				if k != attrib.Root && st.Spawns+st.Rejected > most {
					pc, kind, most = p, k, st.Spawns+st.Rejected
				}
			})
			if most <= 0 {
				t.Skipf("%s has no active spawn site under postdoms", name)
			}

			cfg.SpawnMask = machine.NewSpawnMask()
			cfg.SpawnMask.Add(pc, kind)
			cfg.Attribution = attrib.NewTable()
			masked, err := b.RunNamedContext(context.Background(), "postdoms", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := machine.VerifyAttribution(cfg.Attribution, masked); err != nil {
				t.Errorf("attribution does not reconcile under a mask: %v", err)
			}
			if st := cfg.Attribution.Lookup(pc, kind); st != nil {
				t.Errorf("masked site 0x%x:%s still charged: %+v", pc, attrib.KindName(kind), *st)
			}
		})
	}
}
