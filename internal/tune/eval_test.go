package tune

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/artifact"
	"repro/internal/machine"
	"repro/internal/server"
)

// TestSuperscalarBaselineLocalEqualsRemote: tuning the superscalar
// baseline locally stores the very artifact polyflowd stores for it, under
// the baseline's canonical (superscalar-config) key — not a PolyFlow-keyed
// twin that a daemon or harness sharing the cache would never hit.
func TestSuperscalarBaselineLocalEqualsRemote(t *testing.T) {
	ctx := context.Background()
	b, _, err := speculate.LoadCached("gzip", nil)
	if err != nil {
		t.Fatal(err)
	}
	localCache, err := artifact.New(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := &LocalEvaluator{Bench: b, Policy: "superscalar", Cache: localCache}
	if _, err := local.Evaluate(ctx, nil); err != nil {
		t.Fatal(err)
	}

	serverCache, err := artifact.New(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Cache: serverCache})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	remote := &RemoteEvaluator{Client: &server.Client{Base: hs.URL, HTTP: hs.Client()}, Bench: "gzip", Policy: "superscalar"}
	if _, err := remote.Evaluate(ctx, nil); err != nil {
		t.Fatal(err)
	}

	key, err := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, "superscalar", machine.SuperscalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	localBytes, ok, err := localCache.Get(key.Hash())
	if err != nil || !ok {
		t.Fatalf("local evaluation not stored under the canonical superscalar key (ok=%v err=%v)", ok, err)
	}
	remoteBytes, ok, err := serverCache.Get(key.Hash())
	if err != nil || !ok {
		t.Fatalf("daemon did not store the baseline under the canonical key (ok=%v err=%v)", ok, err)
	}
	if !bytes.Equal(localBytes, remoteBytes) {
		t.Fatal("local and remote superscalar baseline artifacts differ")
	}
}
