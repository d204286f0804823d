package sched

import (
	"strconv"
	"sync"

	"bittactical/internal/cache"
	"bittactical/internal/metrics"
)

// Cache memoizes ScheduleGroup results. A schedule depends only on the
// group's weight values, the connectivity pattern, and the scheduling
// algorithm — it is the static artifact the paper's software front-end
// produces once offline — so experiment sweeps that vary only the back-end
// (TCLp vs TCLe, Figure 8b) or re-simulate a model under several widths can
// schedule each filter group once and share the result. Cached schedules
// are immutable; callers must not modify the returned columns.
//
// The key deliberately excludes the channel-padding mask: scheduling reads
// only the weight values (buildColumn consults Filter.W alone), so groups
// that differ only in padding share an entry.
//
// Entries live in an internal/cache table (striped by the filter-content
// fingerprint, single-flighted, bounded to capacity entries in total); the
// schedules themselves are carved from one slab.
type Cache struct {
	entries *cache.Cache[groupKey, []*Schedule]
	slabMu  sync.Mutex
	slab    schedSlab
}

// groupKey identifies one (filter group, pattern, algorithm) triple. Two
// independent 64-bit FNV-1a streams over the full group content make an
// accidental 128-bit collision implausible at any realistic cache size.
type groupKey struct {
	h1, h2  uint64
	pattern string
	alg     Algorithm
}

// defaultCacheCap bounds resident entries. One entry holds a whole group's
// schedules (up to 16 filters), so the default accommodates every distinct
// group of a full-zoo sweep while capping worst-case memory; on overflow
// the cache drops everything but the newest entry and refills, which keeps
// results correct and the implementation trivial.
const defaultCacheCap = 1 << 14

// NewCache returns an empty cache. capacity <= 0 selects the default bound.
// The bound is global: the cache holds at most capacity entries in total,
// wherever they hash.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	return &Cache{entries: cache.New(int64(capacity),
		func(k groupKey) uint64 { return k.h1 },
		func([]*Schedule) int64 { return 1 },
		nil)}
}

// Shared is the process-wide schedule cache the simulator uses by default.
var Shared = NewCache(0)

func init() {
	// The shared cache is the one an operator of a long-running service
	// cares about; expose its lifetime counters in the default registry.
	Shared.RegisterMetrics(metrics.Default, "sched_cache")
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// patKeys interns the canonical pattern strings: the handful of patterns a
// process sweeps are keyed thousands of times, and the hot path below
// renders into a stack buffer and probes with a byte-slice map lookup (no
// conversion allocation), so repeat keying is allocation-free. Interning by
// the full rendered content — not the pattern name — keeps the no-collision
// property of the rendering itself.
var (
	patKeyMu sync.RWMutex
	patKeys  = make(map[string]string)
)

// patternKey canonicalizes a pattern for keying: the name alone is not
// trustworthy (LookaheadOnly and hand-built patterns reuse labels), so the
// key spells out the structural fields and every offset.
func patternKey(p Pattern) string {
	var arr [96]byte
	b := arr[:0]
	b = strconv.AppendInt(b, int64(p.H), 10)
	b = append(b, '/')
	if p.Infinite {
		b = append(b, 'x')
	}
	for _, o := range p.Offsets {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(o.Dt), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(o.Dl), 10)
	}
	patKeyMu.RLock()
	s, ok := patKeys[string(b)]
	patKeyMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	patKeyMu.Lock()
	patKeys[s] = s
	patKeyMu.Unlock()
	return s
}

// HashFilters computes the filter-content half of a group key: two
// independent hash streams over the group's geometry and weight values.
// Callers that look the same group up repeatedly (the sweep engine's
// filter bank re-keys one group under every config) compute this once and
// pass it to Keyer.ScheduleGroup instead of re-hashing the weights on
// every lookup.
func HashFilters(filters []Filter) (h1, h2 uint64) {
	h1, h2 = uint64(fnvOffset), uint64(5381)
	mix := func(v int64) {
		h1 = fnvInt(h1, v)
		h2 = h2*33 + uint64(v) + (h2 >> 27)
	}
	mix(int64(len(filters)))
	for _, f := range filters {
		mix(int64(f.Lanes))
		mix(int64(f.Steps))
		for _, w := range f.W {
			mix(int64(w))
		}
	}
	return h1, h2
}

// Keyer carries the pattern/algorithm half of a group key in precomputed
// form. Pattern canonicalization builds a string per call; a sweep that
// looks up thousands of groups under one (pattern, algorithm) pays it
// once here instead.
type Keyer struct {
	c   *Cache
	pat string
	p   Pattern
	alg Algorithm
}

// Keyer returns a precomputed-key view of the cache for one
// (pattern, algorithm) pair.
func (c *Cache) Keyer(p Pattern, alg Algorithm) Keyer {
	return Keyer{c: c, pat: patternKey(p), p: p, alg: alg}
}

// ScheduleGroup is Cache.ScheduleGroup with both key halves precomputed:
// the pattern half in the Keyer, the filter-content hash (HashFilters
// over the same filters) by the caller.
func (k Keyer) ScheduleGroup(h1, h2 uint64, filters []Filter) []*Schedule {
	key := groupKey{h1: h1, h2: fnvString(h2, k.pat), pattern: k.pat, alg: k.alg}
	return k.c.lookup(key, filters, k.p, k.alg)
}

// ScheduleGroup returns the memoized joint schedule for the filter group,
// computing and storing it on first use. Concurrent callers of one group
// share a single fill: the first schedules it, the rest wait for its
// result, so no caller ever observes a partial entry.
func (c *Cache) ScheduleGroup(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	h1, h2 := HashFilters(filters)
	pat := patternKey(p)
	key := groupKey{h1: h1, h2: fnvString(h2, pat), pattern: pat, alg: alg}
	return c.lookup(key, filters, p, alg)
}

func (c *Cache) lookup(key groupKey, filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	ss, _ := c.entries.Get(key, func() []*Schedule { return c.fill(filters, p, alg) })
	return ss
}

// fill computes the group's schedules into cache-owned storage. The
// scheduling itself runs in a pooled kernel's arena; the result is then
// carved out of the cache's slab (four amortized-zero "allocations") and
// copied with one bulk memmove per filter. Only the carve holds the slab
// mutex — concurrent fills copy in parallel.
func (c *Cache) fill(filters []Filter, p Pattern, alg Algorithm) []*Schedule {
	k := schedulerPool.Get().(*Scheduler)
	nf, lanes, steps, cols, fallback := k.runGroup(filters, p, alg)
	if fallback != nil || nf == 0 {
		schedulerPool.Put(k)
		return fallback
	}
	c.slabMu.Lock()
	ents, fcols, schs, ptrs := c.slab.take(nf, cols, lanes)
	c.slabMu.Unlock()
	k.assembleInto(ents, fcols, schs, ptrs, nf, lanes, steps, cols)
	schedulerPool.Put(k)
	return ptrs
}

// CacheStats is a cache's lifetime counters and current residency.
// Evictions counts individual entries dropped by the overflow policy, so a
// drop of k entries records k evictions and the accounting stays exact
// (evictions + entries == misses).
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Stats reports lifetime hit/miss/eviction counters and the current entry
// count.
func (c *Cache) Stats() CacheStats {
	st := c.entries.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}
}

// RegisterMetrics exposes the cache's counters in the registry as
// <prefix>_{hits,misses,evictions,entries}, read live at snapshot time.
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.entries.RegisterMetrics(r, prefix)
}

// Reset drops every entry and zeroes the counters. The dropped entries are
// deliberate, not capacity pressure, so they do not count as evictions.
// The slab retires with them; chunks still referenced by schedules
// callers hold stay alive through those references.
func (c *Cache) Reset() {
	c.entries.Reset()
	c.slabMu.Lock()
	c.slab = schedSlab{}
	c.slabMu.Unlock()
}
