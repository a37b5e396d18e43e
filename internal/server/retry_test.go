package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler answers from a scripted status sequence, then 200s forever.
type flakyHandler struct {
	codes []int
	hits  atomic.Int64
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := int(h.hits.Add(1)) - 1
	if n < len(h.codes) {
		code := h.codes[n]
		if code != http.StatusOK {
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"injected"}`))
			return
		}
	}
	w.Write([]byte(`{"ok":true}`))
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestRetryRecoversFrom5xx(t *testing.T) {
	h := &flakyHandler{codes: []int{500, 502}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{Base: srv.URL, Retry: fastRetry(4)}
	var out struct {
		OK bool `json:"ok"`
	}
	code, err := c.do(context.Background(), http.MethodGet, "/", nil, &out)
	if err != nil || code != http.StatusOK || !out.OK {
		t.Fatalf("do = %d, %v, ok=%v; want 200 after retries", code, err, out.OK)
	}
	if got := h.hits.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (500, 502, 200)", got)
	}
}

func TestRetryRecoversFrom429(t *testing.T) {
	h := &flakyHandler{codes: []int{http.StatusTooManyRequests}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{Base: srv.URL, Retry: fastRetry(3)}
	if code, err := c.do(context.Background(), http.MethodGet, "/", nil, nil); err != nil || code != http.StatusOK {
		t.Fatalf("do = %d, %v; want 200 after a 429", code, err)
	}
	if got := h.hits.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestRetryDoesNotRetry4xx(t *testing.T) {
	h := &flakyHandler{codes: []int{http.StatusBadRequest, http.StatusOK}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{Base: srv.URL, Retry: fastRetry(5)}
	code, err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
	if err == nil || code != http.StatusBadRequest {
		t.Fatalf("do = %d, %v; want an immediate 400 error", code, err)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want exactly 1 (client errors are permanent)", got)
	}
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	h := &flakyHandler{codes: []int{503, 503, 503, 503, 503}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{Base: srv.URL, Retry: fastRetry(3)}
	code, err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
	if err == nil || code != http.StatusServiceUnavailable {
		t.Fatalf("do = %d, %v; want 503 after exhausting retries", code, err)
	}
	if got := h.hits.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestRetryZeroPolicyMeansOneAttempt(t *testing.T) {
	// The zero value must preserve the historical single-attempt behavior:
	// Client.Run's own 429 loop depends on seeing the first 429, and the
	// coordinator's heartbeat probes make one attempt each.
	h := &flakyHandler{codes: []int{http.StatusTooManyRequests}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := &Client{Base: srv.URL}
	code, err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
	if err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("do = %d, %v; want the raw 429", code, err)
	}
	if got := h.hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

func TestRetryConnectionRefused(t *testing.T) {
	// Reserve a port, close the listener, and bring a real server up on
	// the same address while the client is retrying: the first attempts
	// are refused at the transport layer, a later one lands.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	go func() {
		time.Sleep(60 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test tolerates exhaustion below
		}
		srv := &http.Server{Handler: &flakyHandler{}}
		go srv.Serve(ln2)
	}()

	c := &Client{Base: "http://" + addr, Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 50 * time.Millisecond}}
	code, err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
	if err != nil {
		t.Skipf("server never came back on %s (port raced away): %v", addr, err)
	}
	if code != http.StatusOK {
		t.Fatalf("do = %d, want 200 once the server is up", code)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	h := &flakyHandler{codes: []int{503, 503, 503, 503}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := &Client{Base: srv.URL, Retry: RetryPolicy{MaxAttempts: 100, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}}
	start := time.Now()
	if _, err := c.do(ctx, http.MethodGet, "/", nil, nil); err == nil {
		t.Fatal("do: want error when ctx expires mid-backoff")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("do blocked %v past its context", elapsed)
	}
}
