package sched

// schedSlab is the cache-owned arena cached schedules are carved from.
// Filling a cache entry used to cost four exactly sized heap allocations
// per group (entries, columns, schedules, pointers); across a full-zoo
// figure sweep that is tens of thousands of allocations per run, all
// with identical lifetime — they live exactly as long as the cache map.
// The slab makes that lifetime explicit: entries are carved out of large
// chunks that grow geometrically-bounded (a new chunk only when the
// current one cannot fit the request), so steady-state fills allocate
// nothing and the allocator's bookkeeping amortizes to one allocation
// per ~thousand groups.
//
// Carved regions are never reclaimed individually: the slab's memory is
// dropped wholesale when the owning cache resets. A chunk that is
// retired stays reachable through the schedules carved from it, so
// dropping the slab never invalidates a schedule a caller still holds.
//
// All carving happens under the cache's slab mutex; the carved region
// is private to the filler afterwards, so the (potentially large) copy
// into it runs outside the lock.
type schedSlab struct {
	ents []Entry
	cols []Column
	schs []Schedule
	ptrs []*Schedule
}

// Chunk sizes, in elements. Entries dominate the footprint (a 16-filter
// group of a mid-size layer is tens of thousands of entries), so their
// chunk is the largest; the metadata chunks are sized so all four run
// out at roughly the same fill count.
const (
	slabEntChunk = 1 << 15
	slabColChunk = 1 << 12
	slabSchChunk = 1 << 9
)

// slabTake carves n elements, starting a fresh chunk when the current
// one cannot fit them. The caller must hold the slab mutex.
func slabTake[T any](buf *[]T, n, chunk int) []T {
	if cap(*buf)-len(*buf) < n {
		if chunk < n {
			chunk = n
		}
		*buf = make([]T, 0, chunk)
	}
	s := (*buf)[len(*buf) : len(*buf)+n : len(*buf)+n]
	*buf = (*buf)[:len(*buf)+n]
	return s
}

// take carves the slices for one group of nf schedules with cols columns
// of lanes entries each. Caller holds the slab mutex.
func (sl *schedSlab) take(nf, cols, lanes int) (ents []Entry, fcols []Column, schs []Schedule, ptrs []*Schedule) {
	ents = slabTake(&sl.ents, nf*cols*lanes, slabEntChunk)
	fcols = slabTake(&sl.cols, nf*cols, slabColChunk)
	schs = slabTake(&sl.schs, nf, slabSchChunk)
	ptrs = slabTake(&sl.ptrs, nf, slabSchChunk)
	return
}
