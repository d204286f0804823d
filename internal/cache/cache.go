// Package cache is the engine's memo table: a striped, single-flight map
// under one global cost bound. The schedule cache (sched.Cache), the
// activation cost plane cache (sim.PlaneCache) and the experiments'
// workload cache are all instances of it; they differ only in their key,
// their value, and what one entry costs against the bound (an entry for
// schedules and workloads, its bytes for planes).
//
// The policy is fixed:
//
//   - Keys spread over a fixed number of stripes by a caller-supplied
//     hash, each stripe with its own lock and map, so parallel sweeps do
//     not serialize on one mutex.
//   - Fills are single-flighted: the first requester of a key computes the
//     value; concurrent requesters of the same key wait for it and count
//     as hits, so a value is never computed twice while its entry lives.
//   - The bound is global: the summed cost of resident values, kept in one
//     atomic off the lookup path. Bounding per stripe would shrink the
//     usable capacity to the fullest stripe's share under uneven hashing.
//   - When a fill takes the total past the bound, every entry except the
//     one just filled is dropped, each counting one eviction. Overflow is
//     rare by construction (the default bounds hold a whole multi-model
//     sweep), so the drop may lock every stripe.
//
// Every miss creates exactly one entry, and every entry leaves the map
// exactly once — as an eviction, or through Reset, which also zeroes the
// counters — so at quiescence evictions + entries == misses, however the
// requesters' keys overlap.
package cache

import (
	"sync"
	"sync/atomic"

	"bittactical/internal/metrics"
)

// stripeCount is the fixed stripe count: enough that eight workers
// rarely collide on a lock, small enough that an empty cache costs about
// two kilobytes.
const stripeCount = 16

// Cache maps keys to values computed once by a fill function. The zero
// value is not usable; build one with New.
type Cache[K comparable, V any] struct {
	stripes [stripeCount]stripe[K, V]
	hash    func(K) uint64
	cost    func(V) int64
	evicted func(K)
	limit   int64

	total     atomic.Int64 // summed cost of resident filled entries
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// stripe is one shard of the entry map, padded to its own cache line so
// workers locking neighbouring stripes do not contend on the line.
type stripe[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
	_  [48]byte
}

// entry single-flights one fill: every requester runs the Once, so
// whichever gets there first fills and the rest wait for its value. done
// is set after val is written, for Peek, which must not block on the
// Once.
type entry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
}

// New returns an empty cache bounded to limit total cost. hash picks a
// key's stripe; cost prices a filled value against the limit; evicted,
// when non-nil, is told each key the overflow policy drops (under the
// cache's locks, so it must be quick and must not call back into the
// cache).
func New[K comparable, V any](limit int64, hash func(K) uint64, cost func(V) int64, evicted func(K)) *Cache[K, V] {
	c := &Cache[K, V]{hash: hash, cost: cost, evicted: evicted, limit: limit}
	for i := range c.stripes {
		c.stripes[i].m = make(map[K]*entry[V])
	}
	return c
}

func (c *Cache[K, V]) stripe(key K) *stripe[K, V] {
	return &c.stripes[c.hash(key)%stripeCount]
}

// Get returns the value for key, calling fill to compute it if no entry
// holds it, and reports whether the lookup was a hit. A requester that
// finds the entry still filling waits for it and counts as a hit. fill
// must be a pure function of the key: whichever concurrent requester runs
// it, every requester gets its result.
func (c *Cache[K, V]) Get(key K, fill func() V) (V, bool) {
	s := c.stripe(key)
	s.mu.Lock()
	e, hit := s.m[key]
	if !hit {
		e = new(entry[V])
		s.m[key] = e
	}
	s.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { c.fill(s, key, e, fill) })
	return e.val, hit
}

// fill computes an entry's value and charges its cost — only if the entry
// is still resident: an overflow drop or a Reset that raced the fill has
// already discarded it, and the value then lives on for its requesters
// alone.
func (c *Cache[K, V]) fill(s *stripe[K, V], key K, e *entry[V], fill func() V) {
	e.val = fill()
	e.done.Store(true)
	cost := c.cost(e.val)
	s.mu.Lock()
	resident := s.m[key] == e
	over := false
	if resident {
		over = c.total.Add(cost) > c.limit
	}
	s.mu.Unlock()
	if over {
		c.evictAllBut(key, e, cost)
	}
}

// evictAllBut is the overflow drop. It locks every stripe in ascending
// order and re-checks the bound, since a concurrent drop may have fixed
// it (and discarded e with it). Entries still filling are dropped too;
// their fills then skip the charge.
func (c *Cache[K, V]) evictAllBut(key K, e *entry[V], cost int64) {
	c.lockAll()
	defer c.unlockAll()
	if c.total.Load() <= c.limit {
		return
	}
	keep := c.stripe(key).m[key] == e
	var dropped int64
	for i := range c.stripes {
		s := &c.stripes[i]
		for k := range s.m {
			if keep && k == key {
				continue
			}
			dropped++
			if c.evicted != nil {
				c.evicted(k)
			}
		}
		s.m = make(map[K]*entry[V])
	}
	c.evictions.Add(dropped)
	c.total.Store(0)
	if keep {
		c.stripe(key).m[key] = e
		c.total.Store(cost)
	}
}

func (c *Cache[K, V]) lockAll() {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
}

func (c *Cache[K, V]) unlockAll() {
	for i := len(c.stripes) - 1; i >= 0; i-- {
		c.stripes[i].mu.Unlock()
	}
}

// Peek returns the value for key if a filled entry holds it. It never
// blocks on a fill in flight, never fills, and touches no counter.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	s := c.stripe(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok || !e.done.Load() {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Stats is a cache's lifetime counters and current residency. Entries
// counts every resident entry, including any still filling; Cost sums
// the filled ones.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Cost      int64
}

// Stats reports the counters and current residency.
func (c *Cache[K, V]) Stats() Stats {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
		Cost:      c.total.Load(),
	}
}

// RegisterMetrics exposes the counters in the registry as
// <prefix>_{hits,misses,evictions,entries}, read live at snapshot time.
func (c *Cache[K, V]) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Func(prefix+"_hits", c.hits.Load)
	r.Func(prefix+"_misses", c.misses.Load)
	r.Func(prefix+"_evictions", c.evictions.Load)
	r.Func(prefix+"_entries", func() int64 { return int64(c.Stats().Entries) })
}

// Reset drops every entry and zeroes the counters. The dropped entries
// are deliberate, not capacity pressure, so they do not count as
// evictions; fills in flight finish for their requesters and charge
// nothing.
func (c *Cache[K, V]) Reset() {
	c.lockAll()
	defer c.unlockAll()
	for i := range c.stripes {
		c.stripes[i].m = make(map[K]*entry[V])
	}
	c.total.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}
