package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// stageMethods maps each cycle-loop stage to the sim methods that run it
// (internal/machine's RunContext calls them once per cycle, in turn).
var stageMethods = map[string][]string{
	"fetch":      {"(*sim).fetch"},
	"dispatch":   {"(*sim).dispatch"},
	"issue":      {"(*sim).issueEvent", "(*sim).issuePolled"},
	"retire":     {"(*sim).retire"},
	"divert":     {"(*sim).moveDivertQueue"},
	"violations": {"(*sim).processViolations"},
	"warmup":     {"(*sim).warmup"},
}

// foldStages splits the cycle loop without instrumenting it: it folds a
// CPU profile with `go tool pprof -top -cum` and reports each stage's
// cumulative time as a share of machine.RunContext's.
func foldStages(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-unit=ms",
		"-nodefraction=0", "-nodecount=100000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	cum := parsePprofTop(out)
	total := cum["machine.RunContext"]
	if total == 0 {
		return nil, fmt.Errorf("profile %s has no machine.RunContext samples", profile)
	}
	fracs := map[string]float64{}
	for stage, methods := range stageMethods {
		var ms float64
		for _, m := range methods {
			ms += cum["machine."+m]
		}
		fracs[stage] = ms / total
	}
	return fracs, nil
}

// parsePprofTop reads `pprof -top -cum -unit=ms` output into cumulative
// milliseconds keyed by function name without its import-path directory
// ("machine.(*sim).fetch"). Inlined frames are folded into their name.
func parsePprofTop(out []byte) map[string]float64 {
	cum := map[string]float64{}
	body := false
	for _, line := range bytes.Split(out, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			body = true
			continue
		}
		if !body || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "ms"), 64)
		if err != nil {
			continue
		}
		name := f[5]
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		cum[name] += ms
	}
	return cum
}
