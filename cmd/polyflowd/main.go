// Command polyflowd serves PolyFlow simulations over HTTP: clients submit
// (bench, policy) jobs, poll status, stream progress via SSE, and fetch
// results and attribution reports. Jobs run on a bounded worker pool
// (reject-when-full answers 429) and results are memoized in the
// content-addressed artifact cache, shared on disk with
// `experiments -cache-dir`.
//
// Usage:
//
//	polyflowd -addr :8080 -cache-dir /var/cache/polyflow
//	polyflowd -addr 127.0.0.1:0 -workers 4 -queue-depth 128
//
// Submit and fetch with curl:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"bench":"gzip","policy":"postdoms"}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/attrib
//
// Run a whole figure grid on the daemon, one job per cell:
//
//	experiments -fig 9 -remote http://localhost:8080
//
// Observability (see docs/OBSERVABILITY.md "Service observability"):
// structured logs go to stderr (-log-level, -log-format json|text),
// GET /metrics serves the telemetry summary, GET /v1/jobs/{id}/spans serves
// each job's phase-span timeline, and -pprof-addr starts an optional
// net/http/pprof listener. /healthz, the one probe, answers 200 while the
// daemon accepts work and 503 once it drains.
//
// SIGINT/SIGTERM drain gracefully: intake stops (submissions answer 503),
// accepted jobs finish (bounded by -drain-timeout), then the process exits.
// See docs/SERVICE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/jobqueue"
	"repro/internal/obs"
	"repro/internal/server"
)

type options struct {
	addr         string
	cacheDir     string
	workers      int
	queueDepth   int
	drainTimeout time.Duration

	logLevel  string
	logFormat string
	pprofAddr string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; :0 picks a free port)")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "on-disk artifact cache root (empty = memory-only cache)")
	flag.IntVar(&o.workers, "workers", 0, "simulation workers (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueDepth, "queue-depth", 64, "queued-job bound; submissions beyond it answer 429")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long a shutdown signal waits for running jobs before canceling them")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060); empty disables profiling")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "polyflowd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	logger, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		return err
	}

	cache, err := artifact.New(artifact.Options{Dir: o.cacheDir})
	if err != nil {
		return err
	}

	pool := jobqueue.New(jobqueue.Config{Workers: o.workers, QueueDepth: o.queueDepth, Logger: logger})
	srv, err := server.New(server.Config{Pool: pool, Cache: cache, Logger: logger})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Handler: srv}
	log.Printf("polyflowd: listening on %s (workers=%d queue-depth=%d cache-dir=%q)",
		ln.Addr(), pool.Stats().Workers, o.queueDepth, o.cacheDir)

	var pprofSrv *http.Server
	if o.pprofAddr != "" {
		// A dedicated mux (not http.DefaultServeMux) keeps the profiling
		// surface off the service listener and trivially firewallable.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pprofSrv = &http.Server{Handler: pmux}
		log.Printf("polyflowd: pprof listening on %s", pln.Addr())
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("polyflowd: pprof server: %v", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		log.Printf("polyflowd: %s received, draining (timeout %s)", sig, o.drainTimeout)
	case err := <-serveErr:
		pool.Close()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Drain first: intake flips to 503 and running jobs finish (SSE streams
	// close), so the subsequent HTTP shutdown has no long-lived handlers to
	// wait out.
	if err := srv.Drain(ctx); err != nil {
		log.Printf("polyflowd: drain deadline hit, canceled remaining jobs: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("polyflowd: http shutdown: %v", err)
	}
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	pool.Close()
	log.Printf("polyflowd: drained, exiting")
	return nil
}
