package artifact

import "fmt"

// TraceKeySchema identifies the trace-artifact key layout. A trace artifact
// is keyed by the semantic emulator inputs only — workload identity, source
// hash, emulation bound — never by policy or machine configuration: the
// same stored trace feeds every policy replay (decode once, simulate many).
// The stored payload is the raw internal/tracestore byte stream
// (polyflow-trace/1) — its own magic, version, and per-frame checksums make
// a separate envelope redundant.
const TraceKeySchema = "polyflow-trace-key/1"

// AnalysisKeySchema identifies the analysis-artifact key layout. The static
// analysis (postdominators, CDG, loop forest, spawn points — see
// internal/core, serialized as polyflow-analysis/1 by core.EncodeAnalysis)
// is a pure function of the same inputs as the trace: the emulation bound
// matters because profile-observed indirect-jump targets come from the
// trace. It therefore shares the trace key's identity split and never
// depends on policy or machine configuration.
const AnalysisKeySchema = "polyflow-analysis-key/1"

// WorkloadKey is the canonical identity of one per-workload product — the
// encoded trace or the serialized static analysis. Its Schema names the
// product, so trace, analysis and simulation keys never collide.
type WorkloadKey struct {
	Schema    string `json:"schema"`
	Workload  string `json:"workload"`
	SourceSHA string `json:"source_sha"`
	MaxInstrs int    `json:"max_instrs"`
}

// NewTraceKey builds the key for the named workload's emulation product.
// It fails with ErrUncacheable when sourceSHA is empty (a bench prepared
// from unregistered source has no stable identity).
func NewTraceKey(workload, sourceSHA string, maxInstrs int) (WorkloadKey, error) {
	return newWorkloadKey(TraceKeySchema, workload, sourceSHA, maxInstrs)
}

// NewAnalysisKey builds the key for the named workload's analysis product.
// Like NewTraceKey, it fails with ErrUncacheable when sourceSHA is empty.
func NewAnalysisKey(workload, sourceSHA string, maxInstrs int) (WorkloadKey, error) {
	return newWorkloadKey(AnalysisKeySchema, workload, sourceSHA, maxInstrs)
}

func newWorkloadKey(schema, workload, sourceSHA string, maxInstrs int) (WorkloadKey, error) {
	if sourceSHA == "" {
		return WorkloadKey{}, fmt.Errorf("%w: bench %q has no source hash", ErrUncacheable, workload)
	}
	return WorkloadKey{Schema: schema, Workload: workload, SourceSHA: sourceSHA, MaxInstrs: maxInstrs}, nil
}

// Hash returns the key's content address: the hex SHA-256 of its canonical
// JSON serialization.
func (k WorkloadKey) Hash() string { return hashJSON(k) }
