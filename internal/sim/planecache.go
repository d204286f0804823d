package sim

import (
	"sync/atomic"

	"bittactical/internal/backend"
	"bittactical/internal/cache"
	"bittactical/internal/fixed"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
)

// PlaneCache memoizes activation cost planes, mirroring sched.Cache for the
// other half of the sweep workload: schedules are keyed on weights, planes
// on activations. The key spells out why planes are shareable — a plane
// depends on the input activations, the lowering geometry (the coords map
// from (window, step, lane) to the tensor), the back-end kind, and the
// datapath width, but NOT on the connectivity pattern, scheduler, tile
// geometry, or weights — so a Figure-8b-style sweep of L<h,d>/T<h,d>
// configs over one model builds each layer's plane once per back-end and
// shares it across every pattern, both within one tclserve /v1/simulate
// request and across requests (or tclsim experiment runs) through
// SharedPlanes. Width is in the key because an 8-bit plane costs the same
// value differently than a 16-bit one.
//
// Entries live in an internal/cache table: striped by the content
// fingerprint, single-flighted (a plane is megabytes of work, so two sweep
// configs hitting the same layer share one build), and bounded by resident
// bytes.
type PlaneCache struct {
	planes *cache.Cache[planeKey, *costPlane]

	// Grouped-plane counters: the same events, restricted to planes of
	// row-variant layers (act group in the key). They answer the question
	// the aggregate counters cannot: is the grouped/depthwise fast path
	// actually being taken, and is it churning the budget?
	groupBuilds    atomic.Int64
	groupHits      atomic.Int64
	groupEvictions atomic.Int64
}

// planeKey identifies one (layer activations+geometry, act group,
// back-end, width) tuple. Two independent 64-bit hash streams over the
// full content make an accidental collision implausible at any realistic
// cache size. The back-end rides in the key by registry name, in the
// clear: any two registered back-ends — including plugins the engine has
// never heard of — key distinct planes at the same width. The act group
// rides in the clear too (-1 for row-invariant layers, the group index
// for grouped/depthwise), so a grouped layer's planes share one content
// hash instead of re-hashing the input tensor per group.
type planeKey struct {
	h1, h2 uint64
	be     string
	width  fixed.Width
	group  int
}

// defaultPlaneCacheBytes bounds resident plane bytes. Planes are large (a
// full-size conv layer is megabytes), so unlike the schedule cache the
// budget is in bytes, not entries; the default holds every layer of a
// multi-model sweep at the evaluation scales while capping worst-case
// memory.
const defaultPlaneCacheBytes = 256 << 20

// NewPlaneCache returns an empty cache. maxBytes <= 0 selects the default
// budget.
func NewPlaneCache(maxBytes int64) *PlaneCache {
	if maxBytes <= 0 {
		maxBytes = defaultPlaneCacheBytes
	}
	c := &PlaneCache{}
	c.planes = cache.New(maxBytes,
		func(k planeKey) uint64 { return k.h1 },
		(*costPlane).sizeBytes,
		func(k planeKey) {
			if k.group >= 0 {
				c.groupEvictions.Add(1)
			}
		})
	return c
}

// SharedPlanes is the process-wide plane cache the simulator uses by
// default.
var SharedPlanes = NewPlaneCache(0)

func init() {
	SharedPlanes.RegisterMetrics(metrics.Default, "sim_plane")
}

const (
	planeFNVOffset = 14695981039346656037
	planeFNVPrime  = 1099511628211
)

// planeKeyOf hashes everything the plane build reads: the back-end and
// width (in the clear), the lowering geometry, the layer parameters the
// coords/Act mapping consults, and the full input activation tensor.
func planeKeyOf(lw *nn.Lowered, be backend.Backend, w fixed.Width) planeKey {
	h1, h2 := uint64(planeFNVOffset), uint64(5381)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h1 ^= uint64(byte(v >> (8 * i)))
			h1 *= planeFNVPrime
		}
		h2 = h2*33 + uint64(v) + (h2 >> 27)
	}
	l := lw.Layer()
	mix(int64(lw.Kind))
	mix(int64(lw.Lanes))
	mix(int64(lw.Steps))
	mix(int64(lw.WindowCount))
	mix(int64(l.C))
	mix(int64(l.R))
	mix(int64(l.S))
	mix(int64(l.Stride))
	mix(int64(l.Pad))
	mix(int64(l.Groups))
	in := lw.Input()
	for _, d := range in.Shape {
		mix(int64(d))
	}
	for _, v := range in.Data {
		mix(int64(v))
	}
	return planeKey{h1: h1, h2: h2, be: be.Name(), width: w, group: -1}
}

// get returns the memoized plane for (lw, be, w), building and storing it
// on first use. ct must be the cost table of (be, w); it is consulted only
// on a fill. This is the single-plane entry point for row-invariant
// layers; grouped layers go through getKeyed with a precomputed base key
// so the input tensor is hashed once per layer, not once per act group.
func (c *PlaneCache) get(lw *nn.Lowered, be backend.Backend, w fixed.Width, ct *costTable) *costPlane {
	return c.getKeyed(planeKeyOf(lw, be, w), lw, ct, 0)
}

// getKeyed is get with the key fully formed by the caller: key.group is
// -1 for row-invariant layers and the act group index otherwise, and
// actGroup is the group a fill builds from. Grouped events additionally
// tick the sim_plane_group_* counters.
func (c *PlaneCache) getKeyed(key planeKey, lw *nn.Lowered, ct *costTable, actGroup int) *costPlane {
	p, hit := c.planes.Get(key, func() *costPlane { return buildPlane(lw, ct, actGroup) })
	if key.group >= 0 {
		if hit {
			c.groupHits.Add(1)
		} else {
			c.groupBuilds.Add(1)
		}
	}
	return p
}

// PlaneCacheStats is a plane cache's lifetime counters and current
// residency. Evictions counts individual entries dropped by the overflow
// policy. A hit may still wait for the plane to finish building (the
// single-flight case); it never duplicates the build.
type PlaneCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64

	// Grouped-plane (row-variant layer) slices of the same events.
	GroupBuilds    int64
	GroupHits      int64
	GroupEvictions int64
}

// Stats reports lifetime hit/miss/eviction counters and current residency.
func (c *PlaneCache) Stats() PlaneCacheStats {
	st := c.planes.Stats()
	return PlaneCacheStats{
		Hits:           st.Hits,
		Misses:         st.Misses,
		Evictions:      st.Evictions,
		Entries:        st.Entries,
		Bytes:          st.Cost,
		GroupBuilds:    c.groupBuilds.Load(),
		GroupHits:      c.groupHits.Load(),
		GroupEvictions: c.groupEvictions.Load(),
	}
}

// RegisterMetrics exposes the cache's counters in the registry as
// <prefix>_{hits,misses,evictions,entries,bytes} and
// <prefix>_group_{builds,hits,evictions}, read live at snapshot time.
func (c *PlaneCache) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.planes.RegisterMetrics(r, prefix)
	r.Func(prefix+"_bytes", func() int64 { return c.planes.Stats().Cost })
	r.Func(prefix+"_group_builds", c.groupBuilds.Load)
	r.Func(prefix+"_group_hits", c.groupHits.Load)
	r.Func(prefix+"_group_evictions", c.groupEvictions.Load)
}

// Reset drops every entry and zeroes the counters. The dropped entries are
// deliberate, not capacity pressure, so they do not count as evictions.
func (c *PlaneCache) Reset() {
	c.planes.Reset()
	c.groupBuilds.Store(0)
	c.groupHits.Store(0)
	c.groupEvictions.Store(0)
}
