package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"bittactical/internal/metrics"
)

// Source says how a request got its results.
type Source string

const (
	// SourceEngine: this request led the engine run (or the shard dispatch).
	SourceEngine Source = "engine"
	// SourceCoalesced: this request joined an identical in-flight run.
	SourceCoalesced Source = "coalesced"
	// SourceCache: this request hit the finished-result LRU.
	SourceCache Source = "cache"
)

// Sweep is one finished simulate request as the cache retains it: the
// response payload minus the per-request fields (source, elapsed time).
type Sweep struct {
	Model   string
	Configs []ConfigPayload
}

// sizeBytes estimates the sweep's retained footprint for the byte budget:
// struct sizes plus string bytes. An estimate is fine — the budget bounds
// memory order-of-magnitude, it is not an accounting ledger.
func (sw *Sweep) sizeBytes() int64 {
	const layerFixed = 64 // LayerPayload struct + string header slack
	const configFixed = 96
	n := int64(len(sw.Model)) + 64
	for i := range sw.Configs {
		c := &sw.Configs[i]
		n += configFixed + int64(len(c.Name))
		for j := range c.Layers {
			n += layerFixed + int64(len(c.Layers[j].Name))
		}
	}
	return n
}

// flight is one in-progress engine run; followers block on done.
type flight struct {
	done chan struct{}
	sw   *Sweep
	err  error
}

// cacheEntry is one retained sweep in LRU position.
type cacheEntry struct {
	key  string
	sw   *Sweep
	size int64
}

// ResultCache is the request-level generalization of the engine's
// PlaneCache: a byte-budgeted LRU of finished sweeps keyed by request
// fingerprint, with single-flight admission so N concurrent identical
// requests share one engine run. Unlike the PlaneCache's per-entry
// sync.Once (planes are tiny and permanent until reset), flights here are
// explicit: a leader can fail or be cancelled, and a waiting follower whose
// own context is still live must then be able to take over the run rather
// than inherit the corpse.
type ResultCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List               // front = most recent
	entries map[string]*list.Element // key -> *cacheEntry element
	flights map[string]*flight

	hits, misses, evictions atomic.Int64
	runs, joined            atomic.Int64
}

// DefaultCacheBudget retains roughly a few thousand full-zoo sweeps.
const DefaultCacheBudget = 64 << 20

// NewResultCache builds a cache with the given byte budget: 0 means
// DefaultCacheBudget, negative disables retention entirely (requests still
// coalesce while in flight, nothing is kept after).
func NewResultCache(budget int64) *ResultCache {
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	return &ResultCache{
		budget:  budget,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Do returns the sweep for key: from the LRU when finished earlier, by
// joining an identical in-flight run, or by leading the run itself (calling
// run exactly once across all concurrent callers of the same key). A
// follower whose leader failed with a cancellation error retries the loop —
// the leader's deadline is not the follower's — while a follower whose own
// ctx has expired returns its own error.
func (c *ResultCache) Do(ctx context.Context, key string, run func() (*Sweep, error)) (*Sweep, Source, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			sw := el.Value.(*cacheEntry).sw
			c.mu.Unlock()
			c.hits.Add(1)
			return sw, SourceCache, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, SourceCoalesced, ctx.Err()
			}
			if f.err == nil {
				c.joined.Add(1)
				return f.sw, SourceCoalesced, nil
			}
			if ctx.Err() != nil {
				return nil, SourceCoalesced, ctx.Err()
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				// The leader died of its own context; this caller is still
				// live, so loop and lead (or re-join) a fresh run.
				continue
			}
			return nil, SourceCoalesced, f.err
		}
		c.misses.Add(1)
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.runs.Add(1)
		c.lead(key, f, run)
		return f.sw, SourceEngine, f.err
	}
}

// errRunPanicked is what followers of a flight whose run panicked get.
var errRunPanicked = errors.New("serve: the simulation run panicked")

// lead runs f for key and retires the flight — removed from the in-flight
// table, retained on success, done closed — even when run panics, so the
// panic reaches only the leader and followers get errRunPanicked instead
// of waiting out their deadlines on a flight nobody will finish.
func (c *ResultCache) lead(key string, f *flight, run func() (*Sweep, error)) {
	f.err = errRunPanicked
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.sw)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.sw, f.err = run()
}

// insertLocked retains the sweep and evicts from the cold end until the
// budget holds again. The entry being inserted is never evicted — a sweep
// larger than the whole budget simply passes through as the only resident
// until the next insert displaces it.
func (c *ResultCache) insertLocked(key string, sw *Sweep) {
	if c.budget < 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A slower leader finished after an identical faster one (possible
		// across the retry loop); keep the resident entry.
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, sw: sw, size: sw.sizeBytes()}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.budget && c.lru.Len() > 1 {
		cold := c.lru.Back()
		ce := cold.Value.(*cacheEntry)
		c.lru.Remove(cold)
		delete(c.entries, ce.key)
		c.bytes -= ce.size
		c.evictions.Add(1)
	}
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Runs, Joined            int64
	Entries                 int
	Bytes                   int64
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(),
		Runs: c.runs.Load(), Joined: c.joined.Load(),
		Entries: entries, Bytes: bytes,
	}
}

// RegisterMetrics exposes the cache in the registry:
// <prefix>_result_{hits,misses,evictions,entries,bytes} for the LRU and
// <prefix>_coalesce_{runs,joined} for the single-flight, read live at
// snapshot time.
func (c *ResultCache) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Func(prefix+"_result_hits", c.hits.Load)
	r.Func(prefix+"_result_misses", c.misses.Load)
	r.Func(prefix+"_result_evictions", c.evictions.Load)
	r.Func(prefix+"_result_entries", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.lru.Len())
	})
	r.Func(prefix+"_result_bytes", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.bytes
	})
	r.Func(prefix+"_coalesce_runs", c.runs.Load)
	r.Func(prefix+"_coalesce_joined", c.joined.Load)
}
