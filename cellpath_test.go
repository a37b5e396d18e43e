package speculate_test

import (
	"bytes"
	"context"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tune"
)

// cellID names one grid cell by its artifact's embedded key.
func cellID(k artifact.Key) string { return k.Workload + "/" + k.Policy }

// storedArtifacts reads every sim artifact in a disk cache directory,
// indexed by cell. Trace and analysis artifacts in the same directory do
// not decode as sim artifacts and are skipped. Each artifact must be
// stored under its own embedded key's hash.
func storedArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		art, err := artifact.DecodeSim(data)
		if err != nil {
			return nil
		}
		if got, want := filepath.Base(path), art.Key.Hash()+".json"; got != want {
			t.Errorf("%s stored as %s, want %s", cellID(art.Key), got, want)
		}
		out[cellID(art.Key)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// servedDaemon runs an in-process polyflowd that records every result
// body it serves, indexed by cell.
func servedDaemon(t *testing.T) (*server.Client, map[string][]byte) {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	served := map[string][]byte{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/result") {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		if art, err := artifact.DecodeSim(rec.Body.Bytes()); err == nil {
			mu.Lock()
			served[cellID(art.Key)] = bytes.Clone(rec.Body.Bytes())
			mu.Unlock()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &server.Client{Base: hs.URL, HTTP: hs.Client()}, served
}

// TestCellPathIdentity runs the same cells through every entry point that
// produces a sim artifact — harness grids with a cache and against a
// daemon, and the local and remote tuning evaluators — and requires one
// artifact per cell: byte-identical bytes under one cache key.
func TestCellPathIdentity(t *testing.T) {
	gzip, _, err := speculate.LoadCached("gzip", nil)
	if err != nil {
		t.Fatal(err)
	}
	quicksort, _, err := speculate.LoadCached("quicksort", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mask *machine.SpawnMask
	for _, s := range gzip.Analysis.Spawns {
		if s.Kind != core.KindLoop {
			mask = mask.With(s.From, uint8(s.Kind))
			break
		}
	}
	cells := []struct {
		bench *speculate.Bench
		pol   string
		mask  *machine.SpawnMask
	}{
		{gzip, "superscalar", nil},
		{gzip, "postdoms", mask},
		{quicksort, "rec_pred", nil},
	}
	// The harness grids: Figure 9's postdoms column under the mask (plus
	// its superscalar baseline) and Figure 12's rec_pred column.
	grids := func(o harness.Options) {
		t.Helper()
		o9 := o
		o9.Benches, o9.Policies, o9.SpawnMask = []string{"gzip"}, []string{"postdoms"}, mask
		if _, err := harness.Figure9Opts(o9); err != nil {
			t.Fatal(err)
		}
		o12 := o
		o12.Benches, o12.Policies = []string{"quicksort"}, []string{"rec_pred"}
		if _, err := harness.Figure12Opts(o12); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	paths := map[string]map[string][]byte{}

	harnessDir := t.TempDir()
	harnessCache, err := artifact.New(artifact.Options{Dir: harnessDir})
	if err != nil {
		t.Fatal(err)
	}
	grids(harness.Options{Cache: harnessCache})
	paths["harness cache"] = storedArtifacts(t, harnessDir)

	client, served := servedDaemon(t)
	grids(harness.Options{Remote: client})
	paths["harness remote"] = served

	tuneDir := t.TempDir()
	tuneCache, err := artifact.New(artifact.Options{Dir: tuneDir})
	if err != nil {
		t.Fatal(err)
	}
	client, served = servedDaemon(t)
	for _, c := range cells {
		local := &tune.LocalEvaluator{Bench: c.bench, Policy: c.pol, Cache: tuneCache}
		if _, err := local.Evaluate(ctx, c.mask); err != nil {
			t.Fatal(err)
		}
		remote := &tune.RemoteEvaluator{Client: client, Bench: c.bench.Name, Policy: c.pol}
		if _, err := remote.Evaluate(ctx, c.mask); err != nil {
			t.Fatal(err)
		}
	}
	paths["tune local"] = storedArtifacts(t, tuneDir)
	paths["tune remote"] = served

	for _, c := range cells {
		id := c.bench.Name + "/" + c.pol
		want, ok := paths["harness cache"][id]
		if !ok {
			t.Fatalf("harness cache: no artifact for %s", id)
		}
		wantArt, err := artifact.DecodeSim(want)
		if err != nil {
			t.Fatal(err)
		}
		for name, arts := range paths {
			got, ok := arts[id]
			if !ok {
				t.Errorf("%s: no artifact for %s", name, id)
				continue
			}
			gotArt, err := artifact.DecodeSim(got)
			if err != nil {
				t.Fatal(err)
			}
			if gotArt.Key.Hash() != wantArt.Key.Hash() {
				t.Errorf("%s: %s keyed %s, harness cache keyed %s", name, id, gotArt.Key.Hash(), wantArt.Key.Hash())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s artifact differs from the harness cache's", name, id)
			}
		}
	}
}

// TestRunCellConcurrentColdCallers pins RunCell's deduplication contract:
// two concurrent calls on a cold key run one simulation, share its bytes,
// and both report hit=false — the follower of a deduplicated computation
// did not get a cached artifact, it waited for the one pipeline run.
func TestRunCellConcurrentColdCallers(t *testing.T) {
	b, _, err := speculate.LoadCached("quicksort", nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := artifact.New(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	ctx := obs.With(context.Background(), tr)

	// The leader's first progress sample holds its simulation open until
	// the follower has had time to join the in-flight computation. The
	// cache exposes no event for that join, so the follower gets a
	// generous fixed window; the leader cannot finish inside it.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	onSample := func(cycle, retired int64) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	type outcome struct {
		data []byte
		hit  bool
		err  error
	}
	results := make(chan outcome, 2)
	call := func() {
		data, hit, err := speculate.RunCell(ctx, b, cache, "postdoms", nil, 1000, onSample)
		results <- outcome{data, hit, err}
	}
	go call()
	<-started
	go call()
	time.Sleep(100 * time.Millisecond)
	close(release)

	first, second := <-results, <-results
	for _, o := range []outcome{first, second} {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.hit {
			t.Error("a concurrent cold caller reported a cache hit")
		}
	}
	if !bytes.Equal(first.data, second.data) {
		t.Error("concurrent callers got different artifact bytes")
	}
	if st := cache.Stats(); st.Stores != 1 {
		t.Errorf("cache stored %d artifacts, want 1 (one simulation)", st.Stores)
	}
	spans := map[string]int{}
	for _, sp := range tr.Spans() {
		spans[sp.Name]++
	}
	if spans["simulate"] != 1 || spans["artifact_encode"] != 1 || spans["cache_lookup"] != 2 {
		t.Errorf("spans %v, want one simulate, one artifact_encode and two cache_lookup", spans)
	}
}
