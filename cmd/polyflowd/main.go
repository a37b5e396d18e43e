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
// Cluster mode (see docs/SERVICE.md "Cluster mode"): one daemon runs as the
// coordinator, fanning each submitted cell out to registered worker daemons
// over a consistent-hash ring keyed by trace artifact; workers join with
// -join and prefetch each workload's trace from the coordinator so every
// workload is decoded once cluster-wide.
//
//	polyflowd -addr :8180 -coordinator                    # coordinator
//	polyflowd -addr :8181 -join http://host:8180          # worker ×N
//	polyflowd -addr :8182 -join http://host:8180 \
//	    -advertise http://10.0.0.2:8182                   # explicit callback URL
//
// Submit and fetch with curl:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"bench":"gzip","policy":"postdoms"}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/attrib
//
// Observability (see docs/OBSERVABILITY.md "Fleet observability"):
// structured logs go to stderr (-log-level, -log-format json|text),
// GET /metrics?format=prometheus serves the Prometheus exposition,
// GET /v1/jobs/{id}/spans serves each job's phase-span timeline, and
// -pprof-addr starts an optional net/http/pprof listener. /readyz answers
// 200 only once the daemon serves traffic (a worker waits for its
// coordinator registration), distinct from the /healthz liveness probe.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
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

	coordinator    bool
	clusterWorkers []string
	clusterWindow  int
	join           string
	advertise      string
}

func main() {
	var o options
	var workerList string
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; :0 picks a free port)")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "on-disk artifact cache root (empty = memory-only cache)")
	flag.IntVar(&o.workers, "workers", 0, "simulation workers (0 = GOMAXPROCS); in coordinator mode, cells dispatched to the cluster at once (0 = 32)")
	flag.IntVar(&o.queueDepth, "queue-depth", 64, "queued-job bound; submissions beyond it answer 429")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long a shutdown signal waits for running jobs before canceling them")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060); empty disables profiling")
	flag.BoolVar(&o.coordinator, "coordinator", false, "run as a cluster coordinator: fan submitted cells out to registered workers instead of simulating locally")
	flag.StringVar(&workerList, "cluster-workers", "", "comma-separated worker base URLs to pre-register (coordinator mode; workers may also self-register via -join)")
	flag.IntVar(&o.clusterWindow, "cluster-window", 0, "per-worker in-flight cell bound (coordinator mode; 0 = default)")
	flag.StringVar(&o.join, "join", "", "coordinator base URL to register with (worker mode); traces are prefetched from it so each workload is decoded once cluster-wide")
	flag.StringVar(&o.advertise, "advertise", "", "base URL the coordinator should reach this worker at (default: derived from the listen address)")
	flag.Parse()
	if workerList != "" {
		for _, w := range strings.Split(workerList, ",") {
			if w = strings.TrimSpace(w); w != "" {
				o.clusterWorkers = append(o.clusterWorkers, w)
			}
		}
	}
	if o.coordinator && o.join != "" {
		fmt.Fprintln(os.Stderr, "polyflowd: -coordinator and -join are mutually exclusive")
		os.Exit(1)
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "polyflowd:", err)
		os.Exit(1)
	}
}

// advertiseURL derives the base URL a coordinator can call this daemon
// back on. An explicit -advertise wins; otherwise the listener's port is
// combined with a loopback or the listener's own host.
func advertiseURL(explicit string, ln net.Listener) string {
	if explicit != "" {
		return strings.TrimRight(explicit, "/")
	}
	host, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		return "http://" + ln.Addr().String()
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
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

	var coord *cluster.Coordinator
	cfg := server.Config{Cache: cache, Logger: logger}
	poolWorkers := o.workers
	if o.coordinator {
		coord = cluster.New(cluster.Options{Window: o.clusterWindow, Logger: logger})
		defer coord.Close()
		for _, w := range o.clusterWorkers {
			if err := coord.AddWorker(w); err != nil {
				return err
			}
		}
		// The pool is the only queue a cluster cell waits in, and each of
		// its workers carries one cell's dispatch, blocked on HTTP I/O, not
		// CPU: oversubscribe. -cluster-window bounds each worker's share.
		if poolWorkers == 0 {
			poolWorkers = 32
		}
		cfg.Runner = coord.Runner()
		cfg.MetricsExtra = coord.FillMetrics
	}
	if o.join != "" {
		// Worker mode: fetch each requested workload's trace artifact from
		// the coordinator before falling back to local emulation. /readyz
		// stays 503 until the coordinator registration succeeds.
		cfg.TraceUpstream = &server.Client{Base: strings.TrimRight(o.join, "/"), Retry: server.DefaultRetry()}
		cfg.StartUnready = true
	}

	pool := jobqueue.New(jobqueue.Config{Workers: poolWorkers, QueueDepth: o.queueDepth, Logger: logger})
	cfg.Pool = pool
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}

	handler := http.Handler(srv)
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", coord.Handler())
		mux.Handle("/", srv)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}
	mode := "standalone"
	if o.coordinator {
		mode = "coordinator"
	} else if o.join != "" {
		mode = "worker"
	}
	log.Printf("polyflowd: listening on %s (mode=%s workers=%d queue-depth=%d cache-dir=%q)",
		ln.Addr(), mode, pool.Stats().Workers, o.queueDepth, o.cacheDir)

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

	var adv string
	if o.join != "" {
		adv = advertiseURL(o.advertise, ln)
		regCtx, regCancel := context.WithCancel(context.Background())
		defer regCancel()
		go func() {
			if err := cluster.Register(regCtx, o.join, adv, nil); err != nil {
				log.Printf("polyflowd: registering with %s as %s: %v", o.join, adv, err)
				return
			}
			log.Printf("polyflowd: registered with coordinator %s as %s", o.join, adv)
			srv.SetReady(true)
		}()
	}

	select {
	case sig := <-sigCh:
		log.Printf("polyflowd: %s received, draining (timeout %s)", sig, o.drainTimeout)
	case err := <-serveErr:
		pool.Close()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if o.join != "" {
		// Leave the ring before draining so the coordinator stops routing
		// new cells here instead of discovering the death by heartbeat.
		if err := cluster.Deregister(ctx, o.join, adv, nil); err != nil {
			log.Printf("polyflowd: deregistering from %s: %v", o.join, err)
		}
	}
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
