package artifact

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func hashOf(s string) string { return SourceSHA(s) }

func TestMemoryTierLRU(t *testing.T) {
	c, err := New(Options{MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	h1, h2, h3 := hashOf("1"), hashOf("2"), hashOf("3")
	c.Put(h1, []byte("one"))
	c.Put(h2, []byte("two"))
	if _, ok, _ := c.Get(h1); !ok {
		t.Fatal("h1 missing before eviction")
	}
	// h1 was just touched, so inserting h3 must evict h2.
	c.Put(h3, []byte("three"))
	if _, ok, _ := c.Get(h2); ok {
		t.Fatal("h2 survived past capacity")
	}
	if data, ok, _ := c.Get(h1); !ok || string(data) != "one" {
		t.Fatalf("h1 = %q,%v", data, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.MemEntries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryTierByteBound(t *testing.T) {
	c, err := New(Options{MemEntries: 100, MemBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(hashOf("a"), []byte("123456"))
	c.Put(hashOf("b"), []byte("123456")) // 12 bytes total > 10: evicts a
	if _, ok, _ := c.Get(hashOf("a")); ok {
		t.Fatal("byte bound not enforced")
	}
	// An artifact larger than the whole tier is not resident but not an error.
	c.Put(hashOf("huge"), make([]byte, 64))
	if st := c.Stats(); st.MemBytes > 10 {
		t.Fatalf("MemBytes = %d, want <= 10", st.MemBytes)
	}
}

func TestDiskTierRoundTripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := hashOf("payload")
	if err := c.Put(h, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// A second cache over the same dir sees the entry (disk hit), then
	// serves it from memory (mem hit).
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if data, ok, err := c2.Get(h); err != nil || !ok || string(data) != "payload" {
		t.Fatalf("disk get = %q,%v,%v", data, ok, err)
	}
	if data, ok, _ := c2.Get(h); !ok || string(data) != "payload" {
		t.Fatalf("promoted get = %q,%v", data, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Layout: sharded by the first two hash chars.
	if _, err := os.Stat(filepath.Join(dir, h[:2], h+".json")); err != nil {
		t.Fatalf("expected sharded layout: %v", err)
	}
}

func TestDiskTierRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "precious.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir}); err == nil {
		t.Fatal("adopted a non-empty non-cache directory")
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hashOf("shared")
	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		<-gate
		return []byte("product"), nil
	}
	const callers = 16
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.GetOrCompute(context.Background(), h, compute)
		}(i)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil || string(results[i]) != "product" {
			t.Fatalf("caller %d: %q, %v", i, results[i], errs[i])
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
	// Next call is a plain memory hit.
	if _, hit, _ := c.GetOrCompute(context.Background(), h, compute); !hit {
		t.Fatal("post-compute call missed")
	}
}

func TestGetOrComputeErrorIsShared(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, _, err = c.GetOrCompute(context.Background(), hashOf("bad"), func(ctx context.Context) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Nothing was stored: the next call recomputes.
	data, hit, err := c.GetOrCompute(context.Background(), hashOf("bad"), func(ctx context.Context) ([]byte, error) {
		return []byte("fixed"), nil
	})
	if err != nil || hit || string(data) != "fixed" {
		t.Fatalf("retry = %q,%v,%v", data, hit, err)
	}
}

func TestGetOrComputeManyKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, MemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		h := hashOf(fmt.Sprint(i))
		want := fmt.Sprintf("v%d", i)
		data, hit, err := c.GetOrCompute(context.Background(), h, func(ctx context.Context) ([]byte, error) {
			return []byte(want), nil
		})
		if err != nil || hit || string(data) != want {
			t.Fatalf("i=%d: %q,%v,%v", i, data, hit, err)
		}
	}
	// Everything beyond the 4-entry memory tier still hits via disk.
	for i := 0; i < 32; i++ {
		h := hashOf(fmt.Sprint(i))
		data, hit, err := c.GetOrCompute(context.Background(), h, func(ctx context.Context) ([]byte, error) {
			return nil, errors.New("must not recompute")
		})
		if err != nil || !hit || string(data) != fmt.Sprintf("v%d", i) {
			t.Fatalf("i=%d second pass: %q,%v,%v", i, data, hit, err)
		}
	}
}

// doneWatch is a context that reports when a caller first selects on its
// Done channel — the moment a singleflight follower starts waiting.
type doneWatch struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (d *doneWatch) Done() <-chan struct{} {
	d.once.Do(func() { close(d.waiting) })
	return d.Context.Done()
}

// TestGetOrComputeCanceledLeaderSparesFollowers: a leader whose own context
// ends mid-compute must not hand its cancellation to a follower whose
// context is still live; the follower retries and computes.
func TestGetOrComputeCanceledLeaderSparesFollowers(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hashOf("abandoned")
	leaderCtx, cancel := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(leaderCtx, h, func(ctx context.Context) ([]byte, error) {
			close(started)
			<-release
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	<-started

	follower := &doneWatch{Context: context.Background(), waiting: make(chan struct{})}
	var computes atomic.Int64
	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		data, _, err := c.GetOrCompute(follower, h, func(ctx context.Context) ([]byte, error) {
			computes.Add(1)
			return []byte("product"), nil
		})
		got <- result{data, err}
	}()
	<-follower.waiting
	cancel()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	r := <-got
	if r.err != nil || string(r.data) != "product" {
		t.Fatalf("follower = %q, %v; want product, nil", r.data, r.err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("follower computed %d times, want 1", n)
	}
}
