package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/attrib"
	"repro/internal/obs"
)

// RetryPolicy bounds the client's transient-failure retries. Requests that
// fail at the transport layer (connection refused, reset), answer 429
// (queue backpressure) or answer 5xx are reissued with exponential backoff
// and jitter; other 4xx answers are never retried. The zero value disables
// retries (exactly one attempt), for callers that implement their own
// 429 handling, as Client.Run does.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget; <= 1 means no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, doubled per
	// attempt; <= 0 selects 25ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 selects 1s.
	MaxDelay time.Duration
}

// DefaultRetry is the policy that `experiments -remote` and
// `polytune search -daemon` use: enough attempts to ride out a daemon
// restart, each backoff capped at one second.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}
}

// Retryable reports whether a failed attempt with this status code may be
// reissued. Code 0 is a transport-level failure (no HTTP answer at all).
func (RetryPolicy) Retryable(code int) bool {
	return code == 0 || code == http.StatusTooManyRequests || code >= 500
}

// backoff blocks for the attempt'th retry delay: exponential growth from
// BaseDelay capped at MaxDelay, with uniform jitter over the upper half so
// concurrent retrying callers never thunder in lockstep.
func (p RetryPolicy) backoff(ctx context.Context, attempt int) error {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Client is a thin Go client for the polyflowd API; remote harness grids,
// the remote tuner and perfbench drive the daemon through it.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retry governs transient-failure retries; the zero value disables
	// them.
	Retry RetryPolicy
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) (int, error) {
	var payload []byte
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		payload = data
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		code, err := c.doOnce(ctx, method, path, payload, out)
		if err == nil || !c.Retry.Retryable(code) || attempt == attempts-1 {
			return code, err
		}
		if berr := c.Retry.backoff(ctx, attempt); berr != nil {
			return code, err
		}
	}
}

// doOnce issues one HTTP attempt. Code 0 with a non-nil error means the
// request never got an HTTP answer (transport failure).
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) (int, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// A traced context propagates its ID, joining the remote job to the
	// caller's trace; an untraced context adds no header (and no work).
	if id := obs.IDFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return resp.StatusCode, nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Submit posts a job. The returned status is the accepted job (state
// "queued"); a full queue surfaces as an error wrapping HTTP 429.
func (c *Client) Submit(ctx context.Context, req Request) (Status, int, error) {
	var st Status
	code, err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, code, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches every retained job, newest first.
func (c *Client) List(ctx context.Context) ([]Status, error) {
	var out []Status
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
	return err
}

// abandonTimeout bounds CancelAbandoned's DELETE.
const abandonTimeout = time.Second

// CancelAbandoned cancels job id when ctx has ended, so a caller that
// stops waiting on a job it submitted does not leave the daemon simulating
// an orphan. It is best effort: the DELETE runs under a short timeout
// detached from ctx's cancellation, and its answer is ignored.
func (c *Client) CancelAbandoned(ctx context.Context, id string) {
	if ctx.Err() == nil {
		return
	}
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), abandonTimeout)
	defer cancel()
	c.Cancel(cctx, id)
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "succeeded", "failed", "canceled":
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// runPoll paces Run: both its 429 back-off and its status polls.
const runPoll = 5 * time.Millisecond

// Run executes one job to completion and returns its artifact bytes with
// the job's terminal status: it submits req, waits out HTTP 429 (a batch
// caller would rather wait than shed load) until ctx ends, waits for the
// job, and fetches the result. A job that ends in any state other than
// succeeded is an error, and a job abandoned because ctx ended is
// canceled on the daemon. The harness's remote grids and the remote tuner
// both run cells through it, so they see the bytes a local RunCell would
// produce.
func (c *Client) Run(ctx context.Context, req Request) ([]byte, Status, error) {
	var st Status
	for {
		var code int
		var err error
		st, code, err = c.Submit(ctx, req)
		if err == nil {
			break
		}
		if code != http.StatusTooManyRequests {
			return nil, st, fmt.Errorf("submitting %s/%s: %w", req.Bench, req.Policy, err)
		}
		select {
		case <-ctx.Done():
			return nil, st, ctx.Err()
		case <-time.After(runPoll):
		}
	}
	defer c.CancelAbandoned(ctx, st.ID)
	fin, err := c.Wait(ctx, st.ID, runPoll)
	if err != nil {
		return nil, fin, fmt.Errorf("waiting on job %s (%s/%s): %w", st.ID, req.Bench, req.Policy, err)
	}
	if fin.State != "succeeded" {
		return nil, fin, fmt.Errorf("job %s (%s/%s) %s: %s", st.ID, req.Bench, req.Policy, fin.State, fin.Error)
	}
	data, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		return nil, fin, fmt.Errorf("fetching result of job %s (%s/%s): %w", st.ID, req.Bench, req.Policy, err)
	}
	return data, fin, nil
}

// ResultBytes fetches a succeeded job's raw artifact bytes.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	return raw, err
}

// Attrib fetches a succeeded job's attribution report.
func (c *Client) Attrib(ctx context.Context, id string) (*attrib.Report, error) {
	var raw []byte
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/attrib", nil, &raw); err != nil {
		return nil, err
	}
	return attrib.ReadReport(bytes.NewReader(raw))
}

// Trace fetches a workload's serialized polyflow-trace/1 artifact —
// feedable to `polyflow -trace-in` or speculate.LoadFromTraceData.
func (c *Client) Trace(ctx context.Context, bench string) ([]byte, error) {
	var raw []byte
	_, err := c.do(ctx, http.MethodGet, "/v1/traces/"+bench, nil, &raw)
	return raw, err
}

// Metrics fetches the plain-text telemetry summary.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var raw []byte
	_, err := c.do(ctx, http.MethodGet, "/metrics", nil, &raw)
	return string(raw), err
}

// Healthy reports whether the server answers /healthz with 200.
func (c *Client) Healthy(ctx context.Context) bool {
	code, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err == nil && code == http.StatusOK
}

// Ready reports whether the server answers /readyz with 200 — serving
// traffic, not merely alive.
func (c *Client) Ready(ctx context.Context) bool {
	code, err := c.do(ctx, http.MethodGet, "/readyz", nil, nil)
	return err == nil && code == http.StatusOK
}

// Spans fetches a job's raw trace export, so a caller can merge the
// daemon's phase spans into its own timeline.
func (c *Client) Spans(ctx context.Context, id string) (obs.Export, error) {
	var raw []byte
	if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/spans?format=raw", nil, &raw); err != nil {
		return obs.Export{}, err
	}
	return obs.DecodeExport(raw)
}
