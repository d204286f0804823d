package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func identity(k int) uint64 { return uint64(k) }

func one(int) int64 { return 1 }

// TestSingleFlight pins the fill contract under contention: N concurrent
// requesters of one key produce exactly one fill (one miss, N-1 hits)
// and all get the value that fill produced.
func TestSingleFlight(t *testing.T) {
	const n = 8
	c := New[int, *int](10, identity, func(*int) int64 { return 1 }, nil)
	var arrived, fills atomic.Int64
	fill := func() *int {
		fills.Add(1)
		// Hold the fill open until every requester has arrived, so the
		// others find the entry still filling.
		for arrived.Load() < n {
			runtime.Gosched()
		}
		v := 42
		return &v
	}
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			got[i], _ = c.Get(7, fill)
		}(i)
	}
	wg.Wait()

	if fills.Load() != 1 {
		t.Errorf("%d fills for one key under %d requesters, want 1", fills.Load(), n)
	}
	for i := range got {
		if got[i] != got[0] || *got[i] != 42 {
			t.Fatalf("requester %d got %p (%d), want the one fill's value %p", i, got[i], *got[i], got[0])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 || st.Cost != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry, cost 1", st, n-1)
	}
}

// TestOverlappingChurnAccounting drives many workers over one shared key
// set at several bounds. Whatever the interleaving of fills, waiters and
// overflow drops, every lookup returns the key's value and the counters
// balance exactly: hits + misses == lookups and
// evictions + entries == misses.
func TestOverlappingChurnAccounting(t *testing.T) {
	const workers, keys, rounds = 8, 24, 20
	for _, limit := range []int64{1, 8, 1 << 14} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			c := New[int, int](limit, identity, one, nil)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := 0; i < keys; i++ {
							k := (i + w*5) % keys // each worker starts elsewhere in the set
							if v, _ := c.Get(k, func() int { return k * 3 }); v != k*3 {
								t.Errorf("key %d: got %d, want %d", k, v, k*3)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			st := c.Stats()
			if st.Hits+st.Misses != workers*keys*rounds {
				t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, workers*keys*rounds)
			}
			if st.Evictions+int64(st.Entries) != st.Misses {
				t.Errorf("evictions %d + entries %d != misses %d", st.Evictions, st.Entries, st.Misses)
			}
			if st.Cost != int64(st.Entries) {
				t.Errorf("cost %d != %d resident entries of cost 1", st.Cost, st.Entries)
			}
			switch limit {
			case 1:
				if st.Evictions == 0 {
					t.Error("limit-1 churn recorded no evictions")
				}
			case 1 << 14:
				if st.Evictions != 0 || st.Misses != keys {
					t.Errorf("roomy cache: %d evictions, %d misses, want 0 and one fill per key (%d)", st.Evictions, st.Misses, keys)
				}
			}
		})
	}
}

// TestCostAfterConcurrentOverflow checks the global bound's bookkeeping:
// after concurrent fills of unequal cost have overflowed the bound many
// times, Cost equals the summed cost of the resident entries, and stays
// within the bound unless one entry alone exceeds it.
func TestCostAfterConcurrentOverflow(t *testing.T) {
	const workers, keys, rounds, limit = 8, 40, 10, 20
	cost := func(v int) int64 { return int64(1 + v%7) }
	c := New[int, int](limit, identity, cost, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					k := (i*7 + w) % keys
					c.Get(k, func() int { return k })
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions; the bound never overflowed")
	}
	var sum int64
	resident := 0
	for k := 0; k < keys; k++ {
		if v, ok := c.Peek(k); ok {
			sum += cost(v)
			resident++
		}
	}
	if resident != st.Entries {
		t.Errorf("Peek finds %d filled entries, Stats reports %d", resident, st.Entries)
	}
	if st.Cost != sum {
		t.Errorf("Cost %d != %d summed over the resident entries", st.Cost, sum)
	}
	if st.Cost > limit && st.Entries > 1 {
		t.Errorf("%d entries cost %d, over the bound %d", st.Entries, st.Cost, limit)
	}
}

// TestResetDuringFill pins Reset's interaction with a fill in flight: the
// filler still gets its value, but the entry it filled is gone, so it
// charges nothing and the cache reads empty.
func TestResetDuringFill(t *testing.T) {
	c := New[int, int](10, identity, one, nil)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := c.Get(1, func() int {
			close(started)
			<-release
			return 5
		})
		done <- v
	}()
	<-started
	c.Reset()
	close(release)
	if v := <-done; v != 5 {
		t.Fatalf("filler got %d, want 5", v)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("after Reset mid-fill: %+v, want an empty cache", st)
	}
	if _, hit := c.Get(1, func() int { return 5 }); hit {
		t.Fatal("key filled before Reset hit afterwards")
	}
	if st := c.Stats(); st.Cost != 1 || st.Entries != 1 {
		t.Fatalf("after refill: %+v, want 1 entry of cost 1", st)
	}
}

// TestPeekNeverReturnsUnfilled checks Peek against fills in flight: it
// reports a key absent until its fill has finished, never blocks, and
// never returns a partly written value.
func TestPeekNeverReturnsUnfilled(t *testing.T) {
	type pair struct{ a, b int }
	c := New[int, pair](1<<10, identity, func(pair) int64 { return 1 }, nil)

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get(0, func() pair {
			close(started)
			<-release
			return pair{1, 1}
		})
	}()
	<-started
	if v, ok := c.Peek(0); ok {
		t.Fatalf("Peek returned %+v for an entry still filling", v)
	}
	close(release)
	<-done
	if v, ok := c.Peek(0); !ok || v != (pair{1, 1}) {
		t.Fatalf("Peek after the fill = (%+v, %v), want ({1 1}, true)", v, ok)
	}

	// Racing peeks against many fills: any value Peek returns is whole.
	const keys = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 1; k < keys; k++ {
			c.Get(k, func() pair { return pair{k, k} })
		}
	}()
	go func() {
		defer wg.Done()
		for seen := 0; seen < keys-1; {
			seen = 0
			for k := 1; k < keys; k++ {
				if v, ok := c.Peek(k); ok {
					if v != (pair{k, k}) {
						t.Errorf("Peek(%d) = %+v, a partial value", k, v)
						return
					}
					seen++
				}
			}
		}
	}()
	wg.Wait()
	if st := c.Stats(); st.Hits != 0 || st.Misses != keys {
		t.Errorf("stats = %+v: Peek must not touch the counters", st)
	}
}

// TestEvictedCallback checks that the overflow drop reports every dropped
// key and spares the one just filled.
func TestEvictedCallback(t *testing.T) {
	var dropped []int
	c := New[int, int](2, identity, one, func(k int) { dropped = append(dropped, k) })
	for k := 0; k < 3; k++ {
		c.Get(k, func() int { return k })
	}
	if len(dropped) != 2 || dropped[0]+dropped[1] != 1 {
		t.Fatalf("dropped %v, want keys 0 and 1", dropped)
	}
	if _, ok := c.Peek(2); !ok {
		t.Fatal("the entry whose fill overflowed the bound was dropped")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 1 || st.Cost != 1 {
		t.Fatalf("stats = %+v, want 2 evictions, 1 entry, cost 1", st)
	}
}
