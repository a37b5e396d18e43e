package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDs(t *testing.T) {
	a, b := NewID(), NewID()
	if a == b {
		t.Fatalf("NewID returned the same ID twice: %s", a)
	}
	if !ValidID(a) || !ValidID(b) {
		t.Fatalf("generated IDs fail ValidID: %s %s", a, b)
	}
	for _, bad := range []string{"", "has space", "semi;colon", strings.Repeat("x", 65), "newline\n"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true, want false", bad)
		}
	}
	if tr := NewTrace("injected; DROP"); !ValidID(tr.ID()) {
		t.Fatalf("invalid supplied ID was echoed: %q", tr.ID())
	}
	if tr := NewTrace("abc-DEF_123"); tr.ID() != "abc-DEF_123" {
		t.Fatalf("valid supplied ID replaced: %q", tr.ID())
	}
}

func TestStartSpanRecords(t *testing.T) {
	tr := NewTrace("")
	ctx := With(context.Background(), tr)
	if IDFrom(ctx) != tr.ID() {
		t.Fatalf("IDFrom = %q, want %q", IDFrom(ctx), tr.ID())
	}
	end := StartSpan(ctx, "simulate")
	time.Sleep(time.Millisecond)
	end.End("hit", "false", "dangling")
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "simulate" || sp.Attrs["hit"] != "false" {
		t.Fatalf("span = %+v", sp)
	}
	if _, ok := sp.Attrs["dangling"]; ok {
		t.Fatal("odd trailing attr key was recorded")
	}
	if sp.Duration() <= 0 {
		t.Fatalf("duration = %v", sp.Duration())
	}
}

func TestOnRecordCallback(t *testing.T) {
	tr := NewTrace("")
	var got []string
	tr.OnRecord(func(sp Span) { got = append(got, sp.Name) })
	ctx := With(context.Background(), tr)
	StartSpan(ctx, "a").End()
	StartSpan(ctx, "b").End()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("callback saw %v", got)
	}
}

// TestStartSpanDisabledZeroAlloc pins the off-path contract: an untraced
// context records nothing and allocates nothing (the
// TestTelemetryOffIsIdentical analogue for the service layer).
func TestStartSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		end := StartSpan(ctx, "simulate")
		end.End("k", "v")
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v per call, want 0", allocs)
	}
}

func TestImportStampsHost(t *testing.T) {
	tr := NewTrace("root")
	tr.Import("http://w1:8181", []Span{
		{Name: "simulate"},
		{Name: "relabeled", Host: "elsewhere"},
	})
	spans := tr.Spans()
	if spans[0].Host != "http://w1:8181" {
		t.Fatalf("host not stamped: %+v", spans[0])
	}
	if spans[1].Host != "elsewhere" {
		t.Fatalf("existing host overwritten: %+v", spans[1])
	}
}

func TestExportRoundTrip(t *testing.T) {
	tr := NewTrace("roundtrip")
	ctx := With(context.Background(), tr)
	StartSpan(ctx, "queue_wait").End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ex, err := DecodeExport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ex.TraceID != "roundtrip" || len(ex.Spans) != 1 || ex.Spans[0].Name != "queue_wait" {
		t.Fatalf("export = %+v", ex)
	}
	if _, err := DecodeExport([]byte("{nope")); err == nil {
		t.Fatal("malformed export decoded")
	}
}

// TestWriteChrome checks the trace-event JSON shape: metadata rows per
// host, complete events with relative microsecond timestamps, trace_id in
// args.
func TestWriteChrome(t *testing.T) {
	tr := NewTrace("chrome1")
	base := time.Now()
	tr.Record(Span{Name: "queue_wait", Start: base, End: base.Add(2 * time.Millisecond)})
	tr.Record(Span{Name: "simulate", Host: "http://w1:8181", Start: base.Add(2 * time.Millisecond), End: base.Add(9 * time.Millisecond)})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, buf.String())
	}
	var sawLocal, sawWorker, sawSim bool
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			name := ev.Args["name"].(string)
			tids[name] = ev.TID
			sawLocal = sawLocal || name == "local"
			sawWorker = sawWorker || name == "http://w1:8181"
		case ev.Ph == "X" && ev.Name == "simulate":
			sawSim = true
			if ev.TS != 2000 || ev.Dur != 7000 {
				t.Fatalf("simulate ts=%d dur=%d, want 2000/7000", ev.TS, ev.Dur)
			}
			if ev.Args["trace_id"] != "chrome1" {
				t.Fatalf("simulate args = %v", ev.Args)
			}
			if ev.TID != tids["http://w1:8181"] {
				t.Fatalf("simulate on tid %d, worker track is %d", ev.TID, tids["http://w1:8181"])
			}
		}
	}
	if !sawLocal || !sawWorker || !sawSim {
		t.Fatalf("missing rows: local=%v worker=%v sim=%v\n%s", sawLocal, sawWorker, sawSim, buf.String())
	}
}

func TestLoggerConstruction(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "job_id", "j1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line invalid: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["job_id"] != "j1" {
		t.Fatalf("record = %v", rec)
	}
	buf.Reset()
	lg, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "k", "v")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering broken: %q", out)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}
