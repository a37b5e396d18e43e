package main

import (
	"strings"
	"testing"
)

func TestCheckFormat(t *testing.T) {
	only := func(fig int) func(int) bool {
		return func(n int) bool { return fig == 0 || fig == n }
	}
	cases := []struct {
		format string
		fig    int
		want   string // error substring; empty means accepted
	}{
		{"text", 0, ""},
		{"csv", 0, ""},
		{"csv", 8, ""},
		{"csv", 9, ""},
		{"json", 9, ""},
		{"json", 10, ""},
		{"json", 12, ""},
		{"json", 0, "figure 5"},
		{"json", 5, "figure 5"},
		{"json", 8, "figure 8"},
		{"json", 11, "figure 11"},
		{"xml", 9, `unknown -format "xml"`},
		{"", 9, "unknown -format"},
	}
	for _, tc := range cases {
		err := checkFormat(tc.format, only(tc.fig))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("-format %q -fig %d: %v, want accepted", tc.format, tc.fig, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("-format %q -fig %d: err = %v, want %q", tc.format, tc.fig, err, tc.want)
		}
	}
}

func TestCheckFig(t *testing.T) {
	for fig := -1; fig <= 13; fig++ {
		err := checkFig(fig)
		switch fig {
		case 0, 5, 8, 9, 10, 11, 12:
			if err != nil {
				t.Errorf("-fig %d: %v, want accepted", fig, err)
			}
		default:
			if err == nil || !strings.Contains(err.Error(), "5, 8, 9, 10, 11 and 12") {
				t.Errorf("-fig %d: err = %v, want a rejection listing the figures", fig, err)
			}
		}
	}
}
