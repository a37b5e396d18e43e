package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// rule says which way a metric improves and how far it may move before a
// change counts; exact metrics must not move at all.
type rule struct {
	better string // "lower" or "higher"
	bound  float64
	exact  bool
}

// extraRules covers the workload-specific end-to-end metrics that the
// untraced run records beside the BENCHMARK.json ones. Each takes the rule
// of the BENCHMARK.json metric it stands beside; "" marks a metric that
// must repeat exactly.
var extraRules = map[string]string{
	"hit_ms_p50":           "op_ms_p50",
	"hit_ms_p90":           "op_ms_p90",
	"miss_ms_p50":          "op_ms_p50",
	"miss_ms_p90":          "op_ms_p90",
	"sim_minstr_per_s":     "ops_per_s",
	"postdoms_speedup_pct": "",
	"failed_frac":          "",
}

// compareMain is `perfbench compare PARENT CHANGE`:
// PARENT and CHANGE hold the standard output of untraced runs of the two
// commits, run as alternating-order pairs (the i-th run of each side is a
// pair). For each workload and metric it prints both sides' median and
// quartiles and a verdict: moved only beyond the metric's bound, and
// unresolved when either side's own spread exceeds the bound, unless
// every change run beats (or loses to) every parent run.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT CHANGE")
		return 2
	}
	rules, order, err := loadRules(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := readRecords(args[0])
	if err == nil {
		var change map[string][]record
		if change, err = readRecords(args[1]); err == nil {
			err = compare(out, parent, change, rules, order)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	return 0
}

func loadRules(path string) (map[string]rule, []string, error) {
	spec, err := loadSpec(path)
	if err != nil {
		return nil, nil, err
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{better: m.Better, bound: m.Bound}
		order = append(order, m.Name)
	}
	var extra []string
	for name, like := range extraRules {
		r, ok := rules[like]
		switch {
		case like == "":
			r = rule{exact: true}
		case !ok:
			return nil, nil, fmt.Errorf("%s takes the rule of %s, which %s does not list", name, like, path)
		}
		rules[name] = r
		extra = append(extra, name)
	}
	sort.Strings(extra)
	return rules, append(order, extra...), nil
}

// readRecords collects the untraced full-record lines of a file, by
// workload, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Perfbench != recordVersion || r.Trace != 0 {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced perfbench records", path)
	}
	return out, nil
}

func compare(out io.Writer, parent, change map[string][]record, rules map[string]rule, order []string) error {
	machine := ""
	for _, side := range []map[string][]record{parent, change} {
		for _, recs := range side {
			for _, r := range recs {
				if machine == "" {
					machine = r.Host.Machine
				}
				if r.Host.Machine != machine {
					return fmt.Errorf("host fingerprints differ (%q vs %q); results are not compared", machine, r.Host.Machine)
				}
			}
		}
	}
	fmt.Fprintf(out, "host: %s\n", machine)
	var workloads []string
	for w := range parent {
		if _, ok := change[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		p, c := parent[w], change[w]
		fmt.Fprintf(out, "\n%s: %d parent runs (%s), %d change runs (%s)\n", w, len(p), p[0].Host.Commit, len(c), c[0].Host.Commit)
		fmt.Fprintf(out, "  %-22s %12s %23s %12s %23s %8s %6s %6s  %s\n",
			"metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "bound", "wins", "verdict")
		for _, name := range order {
			pv, cv := values(p, name), values(c, name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			r := rules[name]
			pq, cq := quartiles(pv), quartiles(cv)
			delta := 0.0
			if pq[1] != 0 {
				delta = (cq[1] - pq[1]) / math.Abs(pq[1])
			}
			fmt.Fprintf(out, "  %-22s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %+7.1f%% %6.2f %6s  %s\n",
				name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], delta*100, r.bound, wins(pv, cv, r), verdict(pv, cv, pq, cq, r))
		}
	}
	return nil
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// beats reports whether a beats b under r.
func (r rule) beats(a, b float64) bool {
	if r.better == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs (i-th parent run, i-th change run) the change won.
func wins(pv, cv []float64, r rule) string {
	if r.better == "" {
		return "-"
	}
	n := min(len(pv), len(cv))
	k := 0
	for i := 0; i < n; i++ {
		if r.beats(cv[i], pv[i]) {
			k++
		}
	}
	return fmt.Sprintf("%d/%d", k, n)
}

func verdict(pv, cv []float64, pq, cq [3]float64, r rule) string {
	if r.exact {
		for _, v := range append(append([]float64(nil), pv...), cv...) {
			if v != pv[0] {
				return "CHANGED (must repeat exactly)"
			}
		}
		return "identical"
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	if spread(pq) > r.bound || spread(cq) > r.bound {
		switch {
		case allBeat(cv, pv, r):
			return "better (every run)"
		case allBeat(pv, cv, r):
			return "WORSE (every run)"
		}
		return fmt.Sprintf("unresolved (spread %.2f/%.2f > bound)", spread(pq), spread(cq))
	}
	delta := (cq[1] - pq[1]) / math.Abs(pq[1])
	switch {
	case math.Abs(delta) <= r.bound:
		return "within bound"
	case r.beats(cq[1], pq[1]):
		return "better"
	}
	return "WORSE"
}

// allBeat reports whether every value of a beats every value of b.
func allBeat(a, b []float64, r rule) bool {
	for _, x := range a {
		for _, y := range b {
			if !r.beats(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (exclusive)
// and statistics.median, so they agree with tools that use those.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return [3]float64{q(1), median(s), q(3)}
}
