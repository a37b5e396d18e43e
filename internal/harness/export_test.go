package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func sampleTable() *SpeedupTable {
	return &SpeedupTable{
		Title:    "sample",
		Benches:  []string{"alpha", "beta"},
		Policies: []string{"p1", "p2"},
		BaseIPC:  []float64{1.5, 2.25},
		Speedup:  [][]float64{{10.125, -3.5}, {20, 40}},
	}
}

func TestSpeedupCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // header + 2 benches + average
		t.Fatalf("rows = %d, want 4", len(recs))
	}
	if recs[0][2] != "p1" || recs[1][0] != "alpha" || recs[1][2] != "10.12" && recs[1][2] != "10.13" {
		t.Fatalf("csv content wrong: %v", recs)
	}
	if recs[3][0] != "average" {
		t.Fatalf("missing average row")
	}
}

func TestSpeedupJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title    string `json:"title"`
		Policies []string
		Rows     []struct {
			Bench          string             `json:"bench"`
			SuperscalarIPC float64            `json:"superscalar_ipc"`
			SpeedupPct     map[string]float64 `json:"speedup_pct"`
		} `json:"rows"`
		Averages map[string]float64 `json:"averages"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Title != "sample" || len(decoded.Rows) != 2 {
		t.Fatalf("json wrong: %+v", decoded)
	}
	if decoded.Rows[0].SpeedupPct["p1"] != 10.13 && decoded.Rows[0].SpeedupPct["p1"] != 10.12 {
		t.Fatalf("rounding wrong: %v", decoded.Rows[0].SpeedupPct)
	}
	// Negative values must round sanely.
	if got := decoded.Rows[1].SpeedupPct["p1"]; got != -3.5 {
		t.Fatalf("negative speedup = %v", got)
	}
	if decoded.Averages["p2"] != 30 {
		t.Fatalf("averages wrong: %v", decoded.Averages)
	}
}

func TestLossCSV(t *testing.T) {
	lt := &LossTable{
		Benches:    []string{"a"},
		Exclusions: []string{"postdoms - loopFT", "postdoms - procFT"},
		Loss:       [][]float64{{1.25}, {-0.5}},
	}
	var buf bytes.Buffer
	if err := lt.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][1] != "1.25" || recs[1][2] != "-0.50" {
		t.Fatalf("loss csv wrong: %v", recs)
	}
}

func TestFigure5CSV(t *testing.T) {
	rows := []Fig5Row{{Bench: "x", Counts: [core.NumKinds]int{2, 3, 4, 5, 6}, Total: 18}}
	var buf bytes.Buffer
	if err := WriteFigure5CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "x,3,4,5,6,2,18") {
		t.Fatalf("figure 5 csv wrong:\n%s", got)
	}
}

// TestFigure8CSV: the CSV parses, and holds the header plus exactly the
// rows the text table prints, values with commas quoted intact.
func TestFigure8CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure8CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("figure 8 csv does not parse: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(Figure8()), "\n")[2:] // title, header
	if len(recs) != 1+len(lines) || recs[0][0] != "parameter" || recs[0][1] != "value" {
		t.Fatalf("figure 8 csv: %d records, want header plus %d rows: %v", len(recs), len(lines), recs)
	}
	for i, line := range lines {
		if r := recs[1+i]; !strings.HasPrefix(line, r[0]) || !strings.HasSuffix(line, r[1]) {
			t.Errorf("csv row %d = %q, text row %q", i, r, line)
		}
	}
	if r := recs[4]; r[0] != "Reorder Buffer" || r[1] != "512 entries, dynamically shared" {
		t.Errorf("Reorder Buffer row = %q", r)
	}
}
