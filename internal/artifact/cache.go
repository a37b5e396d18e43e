package artifact

import (
	"bytes"
	"container/list"
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// Options sizes a Cache.
type Options struct {
	// Dir is the on-disk tier's root directory; empty disables the disk
	// tier (memory-only cache).
	Dir string
	// MemEntries bounds the in-memory tier's entry count; <= 0 selects 512.
	MemEntries int
	// MemBytes bounds the in-memory tier's total payload bytes; <= 0
	// selects 256 MiB. An artifact larger than the bound is still served,
	// it just never resides in memory.
	MemBytes int64
}

// Stats counts cache traffic. Hits split by the tier that served them.
type Stats struct {
	MemHits    int64
	DiskHits   int64
	Misses     int64
	Stores     int64
	Evictions  int64
	MemEntries int
	MemBytes   int64
}

// Cache is the two-tier content-addressed store: a bounded LRU of recently
// used artifacts in front of an on-disk tier laid out by hash. All methods
// are safe for concurrent use. Payloads are immutable: callers must not
// modify returned byte slices.
type Cache struct {
	disk *diskTier // nil when the disk tier is disabled

	mu         sync.Mutex
	lru        *list.List // front = most recent; values are *memEntry
	idx        map[string]*list.Element
	bytes      int64
	maxEntries int
	maxBytes   int64
	flight     map[string]*call

	memHits, diskHits, misses, stores, evictions atomic.Int64
}

type memEntry struct {
	key  string
	data []byte
}

// call is one in-flight computation shared by concurrent requesters.
type call struct {
	done chan struct{}
	data []byte
	hit  bool
	err  error
	// abandoned reports that err came from the leader's own context
	// ending, not from the computation: followers still waiting retry.
	abandoned bool
}

// New opens a cache, creating the disk directory when needed.
func New(opts Options) (*Cache, error) {
	if opts.MemEntries <= 0 {
		opts.MemEntries = 512
	}
	if opts.MemBytes <= 0 {
		opts.MemBytes = 256 << 20
	}
	c := &Cache{
		lru:        list.New(),
		idx:        map[string]*list.Element{},
		maxEntries: opts.MemEntries,
		maxBytes:   opts.MemBytes,
		flight:     map[string]*call{},
	}
	if opts.Dir != "" {
		d, err := newDiskTier(opts.Dir)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Get fetches the artifact stored under hash, consulting memory then disk
// (promoting a disk hit into memory). The boolean reports a hit.
func (c *Cache) Get(hash string) ([]byte, bool, error) {
	if data, ok := c.memGet(hash); ok {
		c.memHits.Add(1)
		return data, true, nil
	}
	if c.disk != nil {
		data, ok, err := c.disk.get(hash)
		if err != nil {
			return nil, false, err
		}
		if ok {
			c.diskHits.Add(1)
			c.memPut(hash, data)
			return data, true, nil
		}
	}
	c.misses.Add(1)
	return nil, false, nil
}

// Handle is a random-access view of one cached artifact, as returned by
// Open. Memory-tier hits are backed by the resident byte slice; disk-tier
// hits are backed by the file itself, so a large artifact (a multi-megabyte
// trace) can be consumed through io.ReaderAt windows without ever being
// fully resident. Close is a no-op for memory-backed handles.
type Handle struct {
	io.ReaderAt
	size   int64
	closer io.Closer
}

// Size returns the artifact's length in bytes.
func (h *Handle) Size() int64 { return h.size }

// Close releases the underlying file, if any.
func (h *Handle) Close() error {
	if h.closer == nil {
		return nil
	}
	return h.closer.Close()
}

// Open returns a random-access handle on the artifact stored under hash,
// consulting memory then disk. The boolean reports a hit. Unlike Get, a
// disk hit is NOT promoted into the memory tier — Open exists precisely so
// oversized artifacts can bypass memory residency — and the stats counters
// are bumped exactly as Get would bump them, so a caller uses either Get or
// Open for a given lookup, never both.
func (c *Cache) Open(hash string) (*Handle, bool, error) {
	if data, ok := c.memGet(hash); ok {
		c.memHits.Add(1)
		return &Handle{ReaderAt: bytes.NewReader(data), size: int64(len(data))}, true, nil
	}
	if c.disk != nil {
		f, size, ok, err := c.disk.open(hash)
		if err != nil {
			return nil, false, err
		}
		if ok {
			c.diskHits.Add(1)
			return &Handle{ReaderAt: f, size: size, closer: f}, true, nil
		}
	}
	c.misses.Add(1)
	return nil, false, nil
}

// Put stores the artifact under hash in both tiers.
func (c *Cache) Put(hash string, data []byte) error {
	c.stores.Add(1)
	c.memPut(hash, data)
	if c.disk != nil {
		return c.disk.put(hash, data)
	}
	return nil
}

// GetOrCompute returns the artifact under hash, running compute on a miss
// and storing its product. Concurrent calls for the same hash are
// deduplicated: one runs compute, the rest share its outcome. The boolean
// reports whether the artifact came from the cache (for followers of a
// deduplicated computation it reports false: the pipeline did run for
// them, just once for all of them). A compute error is returned to every
// waiter and nothing is stored — except when the leader failed because its
// own context ended: a follower whose context is still live then retries,
// and may become the new leader.
func (c *Cache) GetOrCompute(ctx context.Context, hash string, compute func(ctx context.Context) ([]byte, error)) ([]byte, bool, error) {
	if data, ok := c.memGet(hash); ok {
		c.memHits.Add(1)
		return data, true, nil
	}

	c.mu.Lock()
	if cl, ok := c.flight[hash]; ok {
		c.mu.Unlock()
		select {
		case <-cl.done:
			if cl.abandoned && ctx.Err() == nil {
				return c.GetOrCompute(ctx, hash, compute)
			}
			return cl.data, cl.hit, cl.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.flight[hash] = cl
	c.mu.Unlock()

	cl.data, cl.hit, cl.err = c.lead(ctx, hash, compute)
	cl.abandoned = cl.err != nil && ctx.Err() != nil
	c.mu.Lock()
	delete(c.flight, hash)
	c.mu.Unlock()
	close(cl.done)
	return cl.data, cl.hit, cl.err
}

// lead is the singleflight leader's path: disk lookup, then compute+store.
func (c *Cache) lead(ctx context.Context, hash string, compute func(ctx context.Context) ([]byte, error)) ([]byte, bool, error) {
	if c.disk != nil {
		data, ok, err := c.disk.get(hash)
		if err != nil {
			return nil, false, err
		}
		if ok {
			c.diskHits.Add(1)
			c.memPut(hash, data)
			return data, true, nil
		}
	}
	c.misses.Add(1)
	data, err := compute(ctx)
	if err != nil {
		return nil, false, err
	}
	if err := c.Put(hash, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// Stats snapshots the cache counters and memory-tier occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		MemHits:    c.memHits.Load(),
		DiskHits:   c.diskHits.Load(),
		Misses:     c.misses.Load(),
		Stores:     c.stores.Load(),
		Evictions:  c.evictions.Load(),
		MemEntries: entries,
		MemBytes:   bytes,
	}
}

func (c *Cache) memGet(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*memEntry).data, true
}

func (c *Cache) memPut(hash string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[hash]; ok {
		// Same key, same content (content-addressed); just refresh recency.
		c.lru.MoveToFront(el)
		return
	}
	if int64(len(data)) > c.maxBytes {
		return // larger than the whole tier; serve it but don't resident it
	}
	el := c.lru.PushFront(&memEntry{key: hash, data: data})
	c.idx[hash] = el
	c.bytes += int64(len(data))
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.lru.Back()
		if oldest == nil || oldest == el {
			break
		}
		e := oldest.Value.(*memEntry)
		c.lru.Remove(oldest)
		delete(c.idx, e.key)
		c.bytes -= int64(len(e.data))
		c.evictions.Add(1)
	}
}
