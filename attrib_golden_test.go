package speculate_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/attrib"
	"repro/internal/machine"
)

var updateAttrib = flag.Bool("update", false, "rewrite golden files")

// TestAttributionGolden pins the gzip/postdoms attribution report byte for
// byte. The same file is checked by CI against a fresh `polyflow -bench
// gzip -policy postdoms -attrib` run via `polystat diff -fail-on-diff`, so
// it both freezes the JSON schema and catches any timing-model change that
// silently shifts per-site accounting. Regenerate with `go test -run
// TestAttributionGolden -update .` after an intentional change.
func TestAttributionGolden(t *testing.T) {
	// One workload per family: gzip pins the synthetic path, quicksort the
	// syscall path (its golden gates the CI kernels-smoke job).
	for _, name := range []string{"gzip", "quicksort"} {
		t.Run(name, func(t *testing.T) {
			b, err := speculate.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.PolyFlowConfig()
			cfg.Attribution = attrib.NewTable()
			res, err := b.RunNamedContext(context.Background(), "postdoms", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := machine.VerifyAttribution(cfg.Attribution, res); err != nil {
				t.Fatal(err)
			}
			rep := attrib.NewReport(cfg.Attribution, b.Name, "postdoms", res.Config, res.Cycles, res.Retired)
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}

			golden := filepath.Join("testdata", "attrib", name+"_postdoms.golden.json")
			if *updateAttrib {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("attribution report drifted from %s (regenerate with -update if intended)\ngot %d bytes, want %d",
					golden, buf.Len(), len(want))
			}
		})
	}
}
