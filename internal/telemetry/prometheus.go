package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
//
// Registry names are dotted ("server.jobs.submitted"); the exporter mangles
// them to legal Prometheus metric names ("server_jobs_submitted"). A name
// may carry a label suffix in curly braces — the convention HistSet users
// follow for per-route and per-worker series:
//
//	server.http.latency_ms{route="POST /v1/jobs"}
//
// which exports as one sample of the family server_http_latency_ms. Every
// family gets exactly one HELP line (the original dotted name, the closest
// thing to documentation the registry carries) and one TYPE line; histogram
// families render cumulative le-labeled buckets ending at +Inf plus _sum
// and _count series, as scrapers expect.

// promSample is one exported series: a family plus its label set.
type promSample struct {
	labels string // canonical rendered label pairs, no braces; "" = unlabeled
	value  string
	hist   *Histogram
}

// promFamily groups samples sharing a metric family name.
type promFamily struct {
	name    string // mangled family name
	help    string // original dotted name
	typ     string // counter | gauge | histogram
	samples []promSample
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format. Output is deterministic: families in sorted name order, samples
// within a family in sorted label order. GET /metrics?format=prometheus
// serves this on both polyflowd roles.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := map[string]*promFamily{}
	collect := func(rawName, typ string, value string, hist *Histogram) {
		base, labels := splitPromName(rawName)
		name := promName(base)
		// A dotted name registered under more than one metric type would
		// produce conflicting TYPE lines; suffix the later arrivals.
		fam, ok := families[name]
		if ok && fam.typ != typ {
			name += "_" + typ
			fam, ok = families[name]
		}
		if !ok {
			fam = &promFamily{name: name, help: base, typ: typ}
			families[name] = fam
		}
		fam.samples = append(fam.samples, promSample{labels: labels, value: value, hist: hist})
	}
	for name, c := range r.counters {
		collect(name, "counter", strconv.FormatInt(*c.p, 10), nil)
	}
	for name, g := range r.gauges {
		collect(name, "gauge", strconv.FormatInt(g.v, 10), nil)
	}
	for name, h := range r.hists {
		collect(name, "histogram", "", h)
	}
	r.mu.Unlock()

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		fam := families[name]
		sort.Slice(fam.samples, func(i, j int) bool { return fam.samples[i].labels < fam.samples[j].labels })
		fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, s := range fam.samples {
			if fam.typ == "histogram" {
				writePromHistogram(bw, fam.name, s.labels, s.hist)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", fam.name, braced(s.labels), s.value)
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram series: cumulative buckets with
// ascending le bounds ending at +Inf, then _sum and _count.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram) {
	bounds, counts := h.Buckets()
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, fmt.Sprintf(`le="%d"`, b))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), h.Count())
	fmt.Fprintf(w, "%s_sum%s %d\n", name, braced(labels), h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.Count())
}

// splitPromName splits a registry name into its base and an optional label
// suffix ("x{a=\"b\"}" -> "x", `a="b"`).
func splitPromName(name string) (base, labels string) {
	if !strings.HasSuffix(name, "}") {
		return name, ""
	}
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// promName mangles a dotted registry name into a legal Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// PromLabel renders one key="value" label pair with the exposition
// format's escaping, for composing labeled registry names:
//
//	reg.Counter("server.http.requests{" + telemetry.PromLabel("route", pattern) + "}")
func PromLabel(key, value string) string {
	var b strings.Builder
	b.WriteString(key)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// CheckExposition validates Prometheus text exposition read from r:
//
//   - every line is a HELP/TYPE comment or a well-formed sample
//   - each family has exactly one TYPE line, appearing before its samples
//   - (family, labels) sample combinations are unique
//   - histogram buckets are cumulative (monotone nondecreasing in le
//     order), end at le="+Inf", and the +Inf bucket equals _count
//   - every name in require appears as a family
//
// The CI smoke jobs pipe live /metrics output through ci/promcheck, which
// wraps this; the telemetry tests run it over WritePrometheus directly.
func CheckExposition(r io.Reader, require ...string) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	types := map[string]string{}
	helps := map[string]bool{}
	seen := map[string]bool{}
	// histogram accounting: family+labels (le stripped) -> le -> value
	buckets := map[string]map[float64]float64{}
	counts := map[string]float64{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) < 1 || f[0] == "" {
				return fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			helps[f[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(f) != 2 {
				return fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := f[0], f[1]
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		series := name + braced(labels)
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		seen[series] = true
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && types[trimmed] == "histogram" {
				family = trimmed
				break
			}
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("line %d: sample %s has no preceding TYPE line", lineNo, series)
		}
		if types[family] == "histogram" {
			base, le, isBucket := stripLE(labels)
			key := family + "|" + base
			switch {
			case strings.HasSuffix(name, "_bucket") && isBucket:
				if buckets[key] == nil {
					buckets[key] = map[float64]float64{}
				}
				buckets[key][le] = value
			case strings.HasSuffix(name, "_count"):
				counts[key] = value
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for key, bs := range buckets {
		les := make([]float64, 0, len(bs))
		for le := range bs {
			les = append(les, le)
		}
		sort.Float64s(les)
		if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
			return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", key)
		}
		prevCum := -1.0
		for _, le := range les {
			if bs[le] < prevCum {
				return fmt.Errorf("histogram %s: bucket le=%g count %g < preceding %g (not cumulative)", key, le, bs[le], prevCum)
			}
			prevCum = bs[le]
		}
		if c, ok := counts[key]; ok && bs[les[len(les)-1]] != c {
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", key, bs[les[len(les)-1]], c)
		}
	}
	for _, name := range require {
		if _, ok := types[name]; !ok {
			return fmt.Errorf("required family %s missing from exposition", name)
		}
		if !helps[name] {
			return fmt.Errorf("required family %s has no HELP line", name)
		}
	}
	return nil
}

// parsePromSample splits "name{labels} value" (labels optional) and parses
// the value.
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("malformed sample: %q", line)
		}
		name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		f := strings.SplitN(line, " ", 2)
		if len(f) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample: %q", line)
		}
		name, rest = f[0], strings.TrimSpace(f[1])
	}
	if name == "" || !validPromName(name) {
		return "", "", 0, fmt.Errorf("illegal metric name in %q", line)
	}
	// The value may be followed by an optional timestamp; we emit none, but
	// tolerate one to stay a real format checker.
	vf := strings.Fields(rest)
	if len(vf) < 1 || len(vf) > 2 {
		return "", "", 0, fmt.Errorf("malformed sample value: %q", line)
	}
	value, err = strconv.ParseFloat(vf[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value in %q: %w", line, err)
	}
	return name, labels, value, nil
}

func validPromName(name string) bool {
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// stripLE removes the le pair from a bucket label string, returning the
// remaining labels, the parsed le bound, and whether le was present.
func stripLE(labels string) (base string, le float64, ok bool) {
	parts := splitLabelPairs(labels)
	kept := parts[:0]
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) && strings.HasSuffix(p, `"`) {
			raw := p[len(`le="`) : len(p)-1]
			if raw == "+Inf" {
				le, ok = math.Inf(1), true
				continue
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err == nil {
				le, ok = v, true
				continue
			}
		}
		kept = append(kept, p)
	}
	return strings.Join(kept, ","), le, ok
}

// splitLabelPairs splits rendered label pairs on commas outside quotes.
func splitLabelPairs(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	var b strings.Builder
	inQuote, escaped := false, false
	for _, r := range labels {
		switch {
		case escaped:
			b.WriteRune(r)
			escaped = false
		case r == '\\' && inQuote:
			b.WriteRune(r)
			escaped = true
		case r == '"':
			b.WriteRune(r)
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(r)
		}
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}
