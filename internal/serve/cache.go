package serve

import (
	"bytes"
	"container/list"
	"sync"

	"injectable/internal/campaign"
)

// cached is one completed result stream: the immutable binary slab a
// campaign ran into, plus lazily memoized renderings (NDJSON transcode,
// columnar aggregate) built at most once per entry. An evicted entry
// stays valid for any reader still holding it — eviction only drops the
// cache's reference, never mutates the slab.
type cached struct {
	// jobID is the job that produced the stream. The server keeps that
	// job in its table until the stream is evicted, so a cache hit hands
	// back the original job and replays its sealed buffer zero-copy.
	jobID string
	// slab is the full binary trial stream, immutable once cached.
	slab []byte

	mu     sync.Mutex
	ndjson []byte     // memoized NDJSON rendering of slab
	agg    *Aggregate // memoized columnar aggregate of slab
}

// ndjsonSlab returns the NDJSON rendering of the binary slab,
// transcoding on first use and serving the memoized bytes after.
func (c *cached) ndjsonSlab() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ndjson == nil {
		var buf bytes.Buffer
		buf.Grow(2 * len(c.slab))
		if err := campaign.TranscodeBinaryToNDJSON(&buf, c.slab); err != nil {
			return nil, err
		}
		c.ndjson = buf.Bytes()
	}
	return c.ndjson, nil
}

// aggregate returns the columnar aggregate of the slab, scanning on
// first use and serving the memoized result after.
func (c *cached) aggregate() (*Aggregate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.agg == nil {
		agg, err := AggregateStream(c.slab)
		if err != nil {
			return nil, err
		}
		c.agg = agg
	}
	return c.agg, nil
}

// resultCache is an LRU over completed, deterministic result streams
// keyed by canonical spec hash. Determinism is what makes this cache
// semantically free: a hit replays bytes identical to what a fresh run
// would produce.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent; values are cache keys
	entries map[string]*cacheEntry
	// onEvict, when set, is called with the cache lock held for every
	// stream put evicts.
	onEvict func(*cached)
}

type cacheEntry struct {
	val  *cached
	elem *list.Element
}

// newResultCache returns a cache bounded to max entries (min 1).
func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		order:   list.New(),
		entries: map[string]*cacheEntry{},
	}
}

// get returns the cached stream for key, marking it most recently used.
func (c *resultCache) get(key string) (*cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e.elem)
	return e.val, true
}

// put stores a completed stream, evicting the least recently used entry
// when over capacity.
func (c *resultCache) put(key string, val *cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = val
		c.order.MoveToFront(e.elem)
		return
	}
	c.entries[key] = &cacheEntry{val: val, elem: c.order.PushFront(key)}
	for len(c.entries) > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		k := last.Value.(string)
		if c.onEvict != nil {
			c.onEvict(c.entries[k].val)
		}
		delete(c.entries, k)
	}
}

// len returns the number of cached streams.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
