// Package tune searches for per-site spawn-mask configurations that beat a
// policy's default spawn behavior. The attribution loop closes here: a run's
// per-site report (internal/attrib) ranks spawn sites by wasted cycles, the
// search proposes suppressing the worst offenders (machine.Config.SpawnMask),
// and every candidate is evaluated as a normal simulation — locally through
// the artifact cache or remotely through a polyflowd daemon — so repeated
// candidates are deduplicated by content address, never resimulated.
//
// The search itself is deterministic: candidates are ranked by observed
// wasted cycles (ties broken by PC, then kind), and acceptance is a strict
// cycle-count improvement. The seed only matters when Options.Explore adds
// extra pseudo-randomly drawn candidates per round; with Explore = 0 every
// seed produces the identical trajectory. See docs/TUNING.md.
package tune

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/artifact"
	"repro/internal/attrib"
	"repro/internal/machine"
	"repro/internal/server"
)

// Outcome is one candidate's evaluation: the simulation result, the
// per-site attribution report that seeds the next round's ranking, and
// whether the artifact cache (local or the daemon's) already held it.
type Outcome struct {
	Result   machine.Result
	Report   *attrib.Report
	CacheHit bool
}

// Evaluator runs one simulation of the tuned (bench, policy) pair under a
// candidate spawn mask. A nil mask is the unsuppressed baseline.
type Evaluator interface {
	Evaluate(ctx context.Context, mask *machine.SpawnMask) (Outcome, error)
}

// LocalEvaluator simulates in-process through speculate.RunCell — the
// cell path polyflowd and the harness grids take — so a local evaluation
// has the same cache identity and artifact bytes as a served one.
// Results are memoized in the artifact cache when one is configured and
// the bench is cacheable (registered workloads are; ad-hoc benches without
// a SourceSHA run uncached).
type LocalEvaluator struct {
	Bench  *speculate.Bench
	Policy string
	// Cache, when non-nil, memoizes evaluations under the same
	// content-addressed identity the daemon and the harness use — a tuning
	// run against a warm cache replays instead of resimulating.
	Cache *artifact.Cache
}

// Evaluate runs one candidate.
func (e *LocalEvaluator) Evaluate(ctx context.Context, mask *machine.SpawnMask) (Outcome, error) {
	data, hit, err := speculate.RunCell(ctx, e.Bench, e.Cache, e.Policy, mask, 0, nil, nil)
	if err != nil {
		return Outcome{}, err
	}
	return outcome(data, hit)
}

// RemoteEvaluator drives a polyflowd daemon through Client.Run. Cache
// hits come from the daemon's terminal job status, so a warm daemon serves
// a whole tuning round without resimulating.
type RemoteEvaluator struct {
	Client *server.Client
	Bench  string
	Policy string
}

// Evaluate submits the candidate as a daemon job and waits it out. A full
// queue (HTTP 429) is waited out, not an error.
func (e *RemoteEvaluator) Evaluate(ctx context.Context, mask *machine.SpawnMask) (Outcome, error) {
	req := server.Request{Bench: e.Bench, Policy: e.Policy}
	if mask.Len() > 0 {
		req.SpawnMask = mask.Encode()
	}
	data, st, err := e.Client.Run(ctx, req)
	if err != nil {
		return Outcome{}, fmt.Errorf("tune: %w", err)
	}
	return outcome(data, st.CacheHit)
}

// outcome decodes an evaluation's sim artifact.
func outcome(data []byte, hit bool) (Outcome, error) {
	art, err := artifact.DecodeSim(data)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Result: art.Result, Report: art.Attrib, CacheHit: hit}, nil
}
