package tracestore

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// TestCodecAllocs pins the codec's allocation profile: Encode and both
// decode branches allocate per stream, per section and per growth of the
// distinct-PC tables — never per entry or per frame — so a 100000-entry
// prefix of gzip's trace allocates no more than a 2000-entry one, give or
// take the logarithmic PC-table growth.
func TestCodecAllocs(t *testing.T) {
	const slack = 4
	measure := func(max int) (n int, allocs [3]float64) {
		tr, d := realTrace(t, "gzip", max)
		data, err := Encode(tr, d)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh Trace each run: Encode builds the occurrence index
		// itself, as it does for an emulated trace.
		allocs[0] = testing.AllocsPerRun(3, func() { Encode(&trace.Trace{Entries: tr.Entries}, d) })
		allocs[1] = testing.AllocsPerRun(3, func() { Decode(data) })
		allocs[2] = testing.AllocsPerRun(3, func() { Open(bytes.NewReader(data), int64(len(data))).Load() })
		return len(tr.Entries), allocs
	}
	shortN, short := measure(2000)
	longN, long := measure(100_000)
	if longN < 50*shortN {
		t.Fatalf("gzip retired %d entries, want a trace far longer than the %d-entry prefix", longN, shortN)
	}
	for k, name := range []string{"Encode", "Decode", "Reader.Load"} {
		if long[k] > short[k]+slack {
			t.Errorf("%s: %.0f allocations over %d entries, %.0f over %d: grows with trace length", name, long[k], longN, short[k], shortN)
		}
		t.Logf("%s: %.0f allocations over %d entries, %.0f over %d", name, long[k], longN, short[k], shortN)
	}
}
