// Package obs is the service-observability layer: request-scoped spans with
// trace propagation, plus structured-logger construction (log.go). Where
// internal/telemetry measures the *simulated* machine cycle by cycle, obs
// measures the *service* stack that runs it — queue waits, bench loads,
// simulations, artifact encodes — per job.
//
// Every polyflowd job carries a Trace. Phase boundaries call StartSpan;
// when no Trace rides the context the call is an inert zero value, so
// library paths (harness grids, direct speculate runs) pay nothing. The
// trace ID crosses the process boundary in the X-Polyflow-Trace header: a
// client stamps its own ID on a submission, so the daemon's job joins the
// caller's trace. GET /v1/jobs/{id}/spans renders a job's spans as a
// Chrome trace-event timeline — loadable in Perfetto exactly like a
// simulated machine timeline from internal/telemetry.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that carries a caller's trace ID on a
// request to polyflowd.
const TraceHeader = "X-Polyflow-Trace"

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a fixed
		// ID rather than panicking the service path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether a caller-supplied trace ID is acceptable: 1-64
// characters drawn from [a-zA-Z0-9_-]. Anything else is replaced with a
// fresh ID rather than echoed into logs and headers.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, r := range id {
		ok := r == '_' || r == '-' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// Span is one recorded phase of a traced request.
type Span struct {
	// Name is the phase ("queue_wait", "simulate", "artifact_encode", ...).
	Name string `json:"name"`
	// Host names the process that recorded the span; empty means the local
	// process. A caller that merges a daemon's spans into its own timeline
	// stamps them with the daemon's name, so each process keeps its own
	// track.
	Host  string    `json:"host,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attrs are optional key/value annotations ("source=artifact",
	// "hit=true").
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace collects the spans of one request. It is safe for concurrent use:
// the job's runner, the queue and the HTTP spans handler all touch it.
type Trace struct {
	id string

	mu       sync.Mutex
	spans    []Span
	onRecord func(Span)
}

// NewTrace builds a trace. An empty or invalid id gets a fresh one.
func NewTrace(id string) *Trace {
	if !ValidID(id) {
		id = NewID()
	}
	return &Trace{id: id}
}

// ID returns the trace ID.
func (t *Trace) ID() string { return t.id }

// Record appends one finished span.
func (t *Trace) Record(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	fn := t.onRecord
	t.mu.Unlock()
	if fn != nil {
		fn(sp)
	}
}

// OnRecord installs a callback invoked (outside the trace lock) for every
// recorded span — the server feeds per-phase latency histograms this way.
func (t *Trace) OnRecord(fn func(Span)) {
	t.mu.Lock()
	t.onRecord = fn
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Export is the raw JSON form of a trace — what
// GET /v1/jobs/{id}/spans?format=raw serves and Client.Spans decodes.
type Export struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// Export snapshots the trace.
func (t *Trace) Export() Export {
	return Export{TraceID: t.id, Spans: t.Spans()}
}

// WriteJSON writes the raw export.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Export())
}

// chromeSpanEvent mirrors the Chrome trace-event schema (the subset
// Perfetto needs); ts/dur are microseconds.
type chromeSpanEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the trace as Chrome trace-event JSON: one process
// row, one thread track per recording host (the local process first, the
// others in sorted order), every span a complete ("X") event with its
// attrs as args.
// Timestamps are microseconds relative to the earliest span start, so the
// timeline starts at zero like the simulated-cycle exports.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	var t0 time.Time
	hostSet := map[string]bool{}
	for _, sp := range spans {
		if t0.IsZero() || sp.Start.Before(t0) {
			t0 = sp.Start
		}
		hostSet[sp.Host] = true
	}
	hosts := make([]string, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts) // "" (local) sorts first
	tid := map[string]int{}
	events := make([]chromeSpanEvent, 0, len(spans)+len(hosts)+1)
	events = append(events, chromeSpanEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "polyflow trace " + t.id},
	})
	for i, h := range hosts {
		tid[h] = i + 1
		label := h
		if label == "" {
			label = "local"
		}
		events = append(events, chromeSpanEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": label},
		})
	}
	for _, sp := range spans {
		args := map[string]any{"trace_id": t.id}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		dur := sp.End.Sub(sp.Start).Microseconds()
		if dur < 1 {
			dur = 1 // zero-width slices vanish in viewers
		}
		events = append(events, chromeSpanEvent{
			Name: sp.Name, Ph: "X",
			TS: sp.Start.Sub(t0).Microseconds(), Dur: dur,
			PID: 1, TID: tid[sp.Host],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// DecodeExport parses a raw spans export.
func DecodeExport(data []byte) (Export, error) {
	var ex Export
	if err := json.Unmarshal(data, &ex); err != nil {
		return Export{}, fmt.Errorf("obs: decoding spans export: %w", err)
	}
	return ex, nil
}
