// Command polytune searches for per-site spawn-mask configurations that
// beat a policy's default spawn behavior, by closing the attribution loop:
// rank spawn sites by wasted cycles, suppress the worst offenders, and keep
// every suppression that strictly reduces the cycle count.
//
// Usage:
//
//	polytune search -bench gzip -policy postdoms -o gzip.tune.json
//	polytune search -bench gzip -daemon http://127.0.0.1:8080 -rounds 4
//	polytune replay gzip.tune.json
//	polytune diff -fail-on-regress golden.tune.json new.tune.json
//
// search runs the greedy search locally (through the artifact cache when
// -cache-dir is set) or against a polyflowd daemon (-daemon), and writes a
// polyflow-tune/1 trajectory. replay prints a recorded trajectory. diff
// compares two trajectories, ignoring cache hits; -fail-on-regress exits 1
// only when the new best cycle count is worse (the CI gate), -fail-on-diff
// when anything but cache hits moved. See docs/TUNING.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tune"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "search":
		err = searchCmd(os.Args[2:])
	case "replay":
		err = replayCmd(os.Args[2:])
	case "diff":
		err = diffCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "polytune: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "polytune:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  polytune search -bench B -policy P [-seed N] [-rounds N] [-top N] [-explore N]
                  [-min-gain N] [-cache-dir DIR | -daemon URL] [-o FILE] [-q]
                  [-log-level LEVEL] [-log-format text|json]
  polytune replay trajectory.json
  polytune diff [-fail-on-regress] [-fail-on-diff] golden.json new.json`)
}

func searchCmd(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	bench := fs.String("bench", "gzip", "workload to tune")
	policy := fs.String("policy", "postdoms", "spawn policy to tune (not superscalar)")
	seed := fs.Uint64("seed", 1, "exploration seed (only consulted when -explore > 0)")
	rounds := fs.Int("rounds", 8, "maximum accepted suppressions")
	top := fs.Int("top", 4, "worst-offender candidates per round")
	explore := fs.Int("explore", 0, "extra seeded-random candidates per round")
	minGain := fs.Int64("min-gain", 1, "cycles a candidate must save to be accepted")
	cacheDir := fs.String("cache-dir", "", "memoize local evaluations in this artifact cache")
	daemon := fs.String("daemon", "", "evaluate on the polyflowd daemon at this base URL")
	out := fs.String("o", "", "write the trajectory JSON here (default stdout)")
	quiet := fs.Bool("q", false, "suppress per-evaluation progress on stderr")
	logLevel := fs.String("log-level", "", "emit structured logs to stderr at this level (debug, info, warn, error; empty = off)")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	fs.Parse(args)

	if *policy == "superscalar" {
		return fmt.Errorf("the superscalar baseline has no spawn sites to tune")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts := tune.Options{
		Bench: *bench, Policy: *policy,
		Seed: *seed, Rounds: *rounds, TopK: *top,
		Explore: *explore, MinGain: *minGain,
	}
	if !*quiet {
		opts.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	if *logLevel != "" {
		logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			return err
		}
		opts.Logger = logger
	}

	var ev tune.Evaluator
	if *daemon != "" {
		ev = &tune.RemoteEvaluator{
			Client: &server.Client{Base: *daemon, Retry: server.DefaultRetry()},
			Bench:  *bench,
			Policy: *policy,
		}
	} else {
		b, err := speculate.Load(*bench)
		if err != nil {
			return err
		}
		local := &tune.LocalEvaluator{Bench: b, Policy: *policy}
		if *cacheDir != "" {
			cache, err := artifact.New(artifact.Options{Dir: *cacheDir})
			if err != nil {
				return err
			}
			local.Cache = cache
		}
		ev = local
	}

	traj, err := tune.Search(ctx, ev, opts)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := traj.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		printSummary(traj)
		return nil
	}
	return traj.WriteJSON(os.Stdout)
}

func printSummary(t *tune.Trajectory) {
	mask := t.BestMask
	if mask == "" {
		mask = "(empty)"
	}
	fmt.Fprintf(os.Stderr, "%s/%s: %d -> %d cycles (%.2f%% saved), mask %s, %d evaluations\n",
		t.Bench, t.Policy, t.BaselineCycles, t.BestCycles, t.GainPct(), mask, len(t.Steps))
}

func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay wants exactly one trajectory file, got %d args", fs.NArg())
	}
	t, err := tune.ReadTrajectoryFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("%s/%s  seed=%d rounds=%d top=%d explore=%d min-gain=%d\n",
		t.Bench, t.Policy, t.Seed, t.Rounds, t.TopK, t.Explore, t.MinGain)
	for _, s := range t.Steps {
		marker := " "
		if s.Accepted {
			marker = "*"
		}
		site := s.Site
		if site == "" {
			site = "(baseline)"
		}
		hit := ""
		if s.CacheHit {
			hit = "  [cached]"
		}
		fmt.Printf("%s round %-2d %-22s %10d cycles%s\n", marker, s.Round, site, s.Cycles, hit)
	}
	fmt.Printf("best: %d -> %d cycles (%.2f%% saved), mask %q\n",
		t.BaselineCycles, t.BestCycles, t.GainPct(), t.BestMask)
	return nil
}

func diffCmd(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	failOnRegress := fs.Bool("fail-on-regress", false, "exit 1 when the new trajectory's best cycles are worse")
	failOnDiff := fs.Bool("fail-on-diff", false, "exit 1 when the trajectories differ at all (cache hits excluded)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two trajectory files, got %d args", fs.NArg())
	}
	old, err := tune.ReadTrajectoryFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := tune.ReadTrajectoryFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d := tune.Compare(old, cur)
	if !d.Changed() {
		fmt.Printf("trajectories match: best %d cycles, mask %q\n", cur.BestCycles, cur.BestMask)
		return nil
	}
	for _, line := range d.Lines {
		fmt.Println(line)
	}
	fmt.Printf("best cycles: %d -> %d\n", d.OldBest, d.NewBest)
	if *failOnDiff {
		return fmt.Errorf("trajectories differ")
	}
	if *failOnRegress && d.Regressed() {
		return fmt.Errorf("regression: best cycles %d -> %d", d.OldBest, d.NewBest)
	}
	return nil
}
