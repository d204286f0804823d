package sim

import (
	"reflect"
	"sync"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
)

// TestPlaneCacheSingleFlight pins the fill contract under contention: N
// concurrent requesters of one fresh key produce exactly one build (one
// miss; everyone else hits) and share the identical plane pointer.
func TestPlaneCacheSingleFlight(t *testing.T) {
	c := NewPlaneCache(0)
	lw := testFC(t, 60, 20, 40, 18, 0.7)
	be := arch.TCLe.Impl()
	ct := newCostTable(be, fixed.W16)

	const n = 8
	start := make(chan struct{})
	planes := make([]*costPlane, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			planes[i] = c.get(lw, be, fixed.W16, ct)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < n; i++ {
		if planes[i] != planes[0] {
			t.Fatalf("requester %d got a distinct plane pointer: the build was duplicated", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d for one key under %d concurrent requesters, want 1", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d waiters", st.Hits, n-1)
	}
}

// TestPlaneCacheEvictionUnderConcurrentPressure drives the overflow drop
// (which discards every entry but the one being inserted) concurrently
// with single-flight waiters on a hot key. Whatever the interleaving —
// including a waiter blocked on a build whose entry the drop already
// discarded — every requester must get a correct plane, and the byte
// accounting must agree with the resident entries once the dust settles.
func TestPlaneCacheEvictionUnderConcurrentPressure(t *testing.T) {
	hot := testFC(t, 61, 20, 40, 18, 0.7)
	cold := make([]*nn.Lowered, 6)
	for i := range cold {
		cold[i] = testFC(t, int64(70+i), 20, 40, 18, 0.7)
	}
	be := arch.TCLe.Impl()
	ct := newCostTable(be, fixed.W16)
	one := buildPlane(hot, ct, 0).sizeBytes()
	want := buildPlane(hot, ct, 0)

	// Budget for ~2 planes: every few cold fills trip the overflow drop,
	// which may discard the hot entry mid-wait.
	budget := one*2 + one/2
	c := NewPlaneCache(budget)

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					// Hot path: repeatedly demand the same plane.
					p := c.get(hot, be, fixed.W16, ct)
					if p == nil {
						t.Error("hot get returned nil plane")
						return
					}
				} else {
					// Churn path: walk distinct keys to force overflow drops.
					lw := cold[(w*iters+i)%len(cold)]
					if p := c.get(lw, be, fixed.W16, ct); p == nil {
						t.Error("cold get returned nil plane")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under churn; budget pressure never materialized")
	}
	if got := c.get(hot, be, fixed.W16, ct); !reflect.DeepEqual(got, want) {
		t.Error("hot plane after churn differs from a direct build")
	}

	// All builds have completed. Every plane here has the same geometry,
	// so the accounted bytes must be exactly one plane's size per
	// resident entry, and fit the budget (a lone entry may exceed it).
	st = c.Stats()
	if st.Bytes != int64(st.Entries)*one {
		t.Errorf("accounted bytes %d != %d resident planes of %d bytes", st.Bytes, st.Entries, one)
	}
	if st.Bytes > budget && st.Entries > 1 {
		t.Errorf("%d resident entries hold %d bytes over the %d budget", st.Entries, st.Bytes, budget)
	}
}
