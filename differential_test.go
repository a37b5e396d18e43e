package speculate_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/attrib"
	"repro/internal/machine"
)

// TestSchedulerDifferential runs every workload under every policy family
// with both the event-driven scheduler and the original polled reference
// model and requires bit-identical results: same cycles, same Stats, same
// IPC samples. This is the contract that lets the event path replace the
// polled rescan without re-validating the figures. Both runs also carry a
// spawn-site attribution table whose per-site sums must reconcile exactly
// with the machine counters and agree across schedulers. The sweep covers
// every registered family, so the kernels' syscall-bearing traces get the
// same byte-identity guarantee as the synthetic twelve.
func TestSchedulerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	policies := []string{"superscalar", "postdoms", "rec_pred"}
	for _, name := range speculate.AllWorkloadNames() {
		b, err := speculate.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			pol := pol
			t.Run(name+"/"+pol, func(t *testing.T) {
				cfg := machine.PolyFlowConfig()
				cfg.Attribution = attrib.NewTable()
				event, err := b.RunNamedContext(context.Background(), pol, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := machine.VerifyAttribution(cfg.Attribution, event); err != nil {
					t.Errorf("event scheduler: %v", err)
				}
				evRep := attrib.NewReport(cfg.Attribution, name, pol, event.Config, event.Cycles, event.Retired)

				cfg.PolledScheduler = true
				cfg.Attribution = attrib.NewTable()
				polled, err := b.RunNamedContext(context.Background(), pol, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := machine.VerifyAttribution(cfg.Attribution, polled); err != nil {
					t.Errorf("polled scheduler: %v", err)
				}
				poRep := attrib.NewReport(cfg.Attribution, name, pol, polled.Config, polled.Cycles, polled.Retired)

				if !reflect.DeepEqual(event, polled) {
					t.Errorf("event and polled schedulers diverge:\nevent:  %+v\npolled: %+v", event, polled)
				}
				if !reflect.DeepEqual(evRep, poRep) {
					t.Errorf("schedulers attribute differently:\nevent:  %+v\npolled: %+v", evRep, poRep)
				}
			})
		}
	}
}
