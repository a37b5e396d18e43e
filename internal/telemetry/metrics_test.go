package telemetry

import (
	"strings"
	"testing"
)

func TestCounterOwnedAndRegistered(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("owned counter = %d, want 5", got)
	}
	if c2 := r.Counter("a"); c2 != c {
		t.Fatalf("same name returned a different counter")
	}

	var storage int64 = 7
	ext := r.RegisterCounter("b", &storage)
	storage += 3 // the hot loop increments its own field
	if got := ext.Value(); got != 10 {
		t.Fatalf("external counter = %d, want 10", got)
	}
	if v, ok := r.CounterValue("b"); !ok || v != 10 {
		t.Fatalf("CounterValue(b) = %d,%v", v, ok)
	}

	// Re-binding replaces storage (a fresh run reusing the registry).
	var storage2 int64 = 100
	if c3 := r.RegisterCounter("b", &storage2); c3 != ext || c3.Value() != 100 {
		t.Fatalf("rebind: got %d, want 100 on the same handle", c3.Value())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(4)
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatalf("SetMax lowered the gauge: %d", g.Value())
	}
	g.SetMax(9)
	if v, ok := r.GaugeValue("g"); !ok || v != 9 {
		t.Fatalf("GaugeValue = %d,%v, want 9", v, ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bucket shapes: %d bounds, %d counts", len(bounds), len(counts))
	}
	// <=1: {0,1}; (1..2]: {2}; (2..4]: {3,4}; >4: {5,100}
	want := []uint64{2, 1, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 7 || h.Sum() != 115 || h.Min() != 0 || h.Max() != 100 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if mean := h.Mean(); mean < 16.4 || mean > 16.5 {
		t.Fatalf("mean = %f", mean)
	}
	if h2 := r.Histogram("h", []int64{99}); h2 != h {
		t.Fatalf("same name returned a different histogram")
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(4, 5)
	want := []int64{4, 8, 16, 32, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
	if b := ExpBounds(0, 2); b[0] != 1 || b[1] != 2 {
		t.Fatalf("ExpBounds clamps first to 1: %v", b)
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("machine.mispredicts").Add(3)
	r.Gauge("machine.cycles").Set(1000)
	h := r.Histogram("machine.task_lifetime_cycles", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var b strings.Builder
	if err := r.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"counter", "machine.mispredicts", "3",
		"gauge", "machine.cycles", "1000",
		"histogram", "machine.task_lifetime_cycles", "count=3",
		"<= 10", "(10..100]", "> 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// Name-sorted: cycles gauge before mispredicts counter.
	if strings.Index(out, "machine.cycles") > strings.Index(out, "machine.mispredicts") {
		t.Fatalf("summary not name-sorted:\n%s", out)
	}
}

// TestWriteSummaryDeterministic: the summary must be byte-identical
// across repeated renders (map iteration must never leak into the
// output), and a name registered under several metric types must appear
// exactly once per type, counter first — the old renderer printed such a
// name's counter twice and dropped the gauge.
func TestWriteSummaryDeterministic(t *testing.T) {
	render := func() string {
		r := NewRegistry()
		r.Counter("dual").Add(7)
		r.Gauge("dual").Set(9)
		r.Histogram("dual", []int64{4}).Observe(1)
		r.Counter("alpha").Add(1)
		r.Gauge("zeta").Set(2)
		var b strings.Builder
		if err := r.WriteSummary(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render()
	for i := 0; i < 10; i++ {
		if again := render(); again != out {
			t.Fatalf("summary not deterministic:\n--- first\n%s--- again\n%s", out, again)
		}
	}
	for _, line := range []string{
		"counter   dual",
		"gauge     dual",
		"histogram dual",
	} {
		if n := strings.Count(out, line); n != 1 {
			t.Fatalf("%q appears %d times, want 1:\n%s", line, n, out)
		}
	}
	// Name-major order: all of dual's entries sit between alpha and zeta,
	// and within a name the counter precedes the gauge.
	ia := strings.Index(out, "alpha")
	ic := strings.Index(out, "counter   dual")
	ig := strings.Index(out, "gauge     dual")
	ih := strings.Index(out, "histogram dual")
	iz := strings.Index(out, "zeta")
	if !(ia < ic && ic < ig && ig < ih && ih < iz) {
		t.Fatalf("summary order wrong (alpha=%d counter=%d gauge=%d hist=%d zeta=%d):\n%s",
			ia, ic, ig, ih, iz, out)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(3)
	snap := r.Snapshot()
	if snap["c"] != 2 || snap["g"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestEmptyHistogramMinMax: an unobserved histogram must report min=0
// max=0, not internal sentinels, so the summary never renders min > max.
func TestEmptyHistogramMinMax(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("empty", []int64{1, 2})
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram min=%d max=%d, want 0/0", h.Min(), h.Max())
	}
	var b strings.Builder
	if err := reg.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "min=0 max=0") {
		t.Fatalf("summary renders sentinels: %s", b.String())
	}
	h.Observe(-5)
	if h.Min() != -5 || h.Max() != -5 {
		t.Fatalf("after one sample min=%d max=%d, want -5/-5", h.Min(), h.Max())
	}
}

// TestHistogramCloneIsIndependent guards the snapshot path: mutating the
// original after Clone must not leak into the copy.
func TestHistogramCloneIsIndependent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []int64{10})
	h.Observe(5)
	c := h.Clone()
	h.Observe(100)
	if c.Count() != 1 || c.Sum() != 5 {
		t.Fatalf("clone count=%d sum=%d, want 1/5", c.Count(), c.Sum())
	}
	_, counts := c.Buckets()
	if counts[0] != 1 || counts[1] != 0 {
		t.Fatalf("clone buckets = %v", counts)
	}
}

// TestHistSetConcurrent hammers one labeled histogram from many
// goroutines; run under -race this is the service-side thread-safety
// guard Registry handles deliberately do not give.
func TestHistSetConcurrent(t *testing.T) {
	const name = `x{route="GET /x"}`
	hs := NewHistSet()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				hs.Observe(name, []int64{1, 10, 100}, int64(i%200))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	reg := NewRegistry()
	hs.Fill(reg)
	var b strings.Builder
	if err := reg.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "histogram "+name) || !strings.Contains(b.String(), "count=8000 ") {
		t.Fatalf("lost samples:\n%s", b.String())
	}
}
