package sched

import (
	"sync"
	"sync/atomic"
)

// Memo is the per-filter-group metadata of one lowered weight tensor that
// callers derive on a group's first touch and read on every later one:
// each group's cache key, per grouping (filters per group), and each
// group's front-end census, per grouping and (pattern, algorithm) or
// dense. Like the schedule itself it is weight metadata, fixed once the
// weights are, so it is only sound while they never change. It holds keys
// and counts, never schedules: the schedule cache's bound still bounds
// schedule memory. The zero value is ready to use.
type Memo struct {
	mu     sync.Mutex
	keys   map[int]*MemoTable[GroupKey]
	census map[censusID]*MemoTable[GroupCensus]
}

// censusID names one census table: the grouping, and the Keyer's pattern
// key and algorithm. Dense schedules have no pattern, and no canonical
// pattern key is empty, so dense tables take the zero pattern and
// algorithm.
type censusID struct {
	groupSize int
	pattern   string
	alg       Algorithm
}

// GroupKey is a filter group's content hash, HashFilters' result.
type GroupKey struct{ H1, H2 uint64 }

// GroupCensus is a filter group's front-end census: the Stats of its
// schedules summed, and the group's column count.
type GroupCensus struct {
	Stats Stats
	Cols  int
}

// Keys returns the key table of the grouping that puts groupSize filters
// in each of groups groups, creating it on first use.
func (m *Memo) Keys(groupSize, groups int) *MemoTable[GroupKey] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return tableIn(&m.keys, groupSize, groups)
}

// Census returns the census table of the grouping under k's pattern and
// algorithm, or of dense schedules when k is nil, creating it on first
// use.
func (m *Memo) Census(groupSize, groups int, k *Keyer) *MemoTable[GroupCensus] {
	id := censusID{groupSize: groupSize}
	if k != nil {
		id.pattern, id.alg = k.pat, k.alg
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return tableIn(&m.census, id, groups)
}

// tableIn returns (*tables)[id], creating it with one slot per group on
// first use. The caller holds the memo's lock.
func tableIn[K comparable, V any](tables *map[K]*MemoTable[V], id K, groups int) *MemoTable[V] {
	t := (*tables)[id]
	if t == nil {
		if *tables == nil {
			*tables = make(map[K]*MemoTable[V])
		}
		t = &MemoTable[V]{slots: make([]memoSlot[V], groups)}
		(*tables)[id] = t
	}
	return t
}

// MemoTable holds one value per filter group. Concurrent callers may both
// derive a group's value; the first Store keeps it and later ones drop
// theirs, which is sound because every caller derives the same value.
type MemoTable[V any] struct {
	slots []memoSlot[V]
}

// memoSlot states: a slot is written once, between a CAS from empty to
// filling and the store of ready that publishes it.
const (
	slotEmpty uint32 = iota
	slotFilling
	slotReady
)

type memoSlot[V any] struct {
	state atomic.Uint32
	v     V
}

// Load returns group g's value and whether one was stored.
func (t *MemoTable[V]) Load(g int) (V, bool) {
	s := &t.slots[g]
	if s.state.Load() != slotReady {
		var zero V
		return zero, false
	}
	return s.v, true
}

// Store records group g's value unless a value is stored or being stored.
func (t *MemoTable[V]) Store(g int, v V) {
	s := &t.slots[g]
	if s.state.CompareAndSwap(slotEmpty, slotFilling) {
		s.v = v
		s.state.Store(slotReady)
	}
}
