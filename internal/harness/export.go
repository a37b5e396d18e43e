package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/machine"
)

// WriteCSV emits a speedup table as CSV: one row per benchmark, one column
// per policy, plus the superscalar IPC.
func (t *SpeedupTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"bench", "superscalar_ipc"}, t.Policies...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for bi, bench := range t.Benches {
		row := []string{bench, fmt.Sprintf("%.4f", t.BaseIPC[bi])}
		for pi := range t.Policies {
			row = append(row, fmt.Sprintf("%.2f", t.Speedup[pi][bi]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	avg := []string{"average", ""}
	for pi := range t.Policies {
		avg = append(avg, fmt.Sprintf("%.2f", t.Average(pi)))
	}
	if err := cw.Write(avg); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the loss table as CSV.
func (t *LossTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"bench"}, t.Exclusions...)); err != nil {
		return err
	}
	for bi, bench := range t.Benches {
		row := []string{bench}
		for ei := range t.Exclusions {
			row = append(row, fmt.Sprintf("%.2f", t.Loss[ei][bi]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonSpeedup is the exported JSON schema for a speedup table.
type jsonSpeedup struct {
	Title    string             `json:"title"`
	Policies []string           `json:"policies"`
	Rows     []jsonSpeedupBench `json:"rows"`
	Averages map[string]float64 `json:"averages"`
}

type jsonSpeedupBench struct {
	Bench          string             `json:"bench"`
	SuperscalarIPC float64            `json:"superscalar_ipc"`
	SpeedupPct     map[string]float64 `json:"speedup_pct"`
}

// WriteJSON emits the speedup table as pretty-printed JSON.
func (t *SpeedupTable) WriteJSON(w io.Writer) error {
	out := jsonSpeedup{
		Title:    t.Title,
		Policies: t.Policies,
		Averages: map[string]float64{},
	}
	for bi, bench := range t.Benches {
		row := jsonSpeedupBench{
			Bench:          bench,
			SuperscalarIPC: round2(t.BaseIPC[bi]),
			SpeedupPct:     map[string]float64{},
		}
		for pi, p := range t.Policies {
			row.SpeedupPct[p] = round2(t.Speedup[pi][bi])
		}
		out.Rows = append(out.Rows, row)
	}
	for pi, p := range t.Policies {
		out.Averages[p] = round2(t.Average(pi))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteFigure5CSV emits the static spawn distribution.
func WriteFigure5CSV(w io.Writer, rows []Fig5Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"bench", "loopFT", "procFT", "hammock", "other", "loop_heuristic", "total"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Bench}
		for _, v := range []int{r.Counts[1], r.Counts[2], r.Counts[3], r.Counts[4], r.Counts[0], r.Total} {
			rec = append(rec, strconv.Itoa(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure8CSV emits the Figure 8 pipeline parameters as
// parameter,value rows, the rows Figure8 prints.
func WriteFigure8CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"parameter", "value"}); err != nil {
		return err
	}
	for _, r := range machine.PolyFlowConfig().Parameters() {
		if err := cw.Write(r[:]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func round2(v float64) float64 {
	return math.Round(v*100) / 100
}
