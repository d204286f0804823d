package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// sweepOfSize builds a sweep whose sizeBytes lands near want bytes, for
// budget-pressure tests.
func sweepOfSize(name string, want int64) *Sweep {
	sw := &Sweep{Model: name}
	cp := ConfigPayload{Name: name}
	for sw.sizeBytes() < want {
		cp.Layers = append(cp.Layers, LayerPayload{Name: "layer", Cycles: 1, DenseCycles: 2, MACs: 3})
		sw.Configs = []ConfigPayload{cp}
	}
	return sw
}

func mustDo(t *testing.T, c *ResultCache, key string, sw *Sweep) Source {
	t.Helper()
	_, src, err := c.Do(context.Background(), key, func() (*Sweep, error) { return sw, nil })
	if err != nil {
		t.Fatalf("Do(%s): %v", key, err)
	}
	return src
}

func TestResultCacheEvictsUnderByteBudget(t *testing.T) {
	one := sweepOfSize("a", 1<<10)
	budget := 3 * one.sizeBytes()
	c := NewResultCache(budget)

	// Fill past the budget: inserting d must push a (the cold end) out.
	for _, key := range []string{"a", "b", "c", "d"} {
		if src := mustDo(t, c, key, sweepOfSize(key, 1<<10)); src != SourceEngine {
			t.Fatalf("first Do(%s) source = %q, want engine", key, src)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after overfilling the budget")
	}
	if st.Bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d after eviction", st.Bytes, budget)
	}
	// The survivors are the warm keys; the evicted key re-runs.
	if src := mustDo(t, c, "d", nil); src != SourceCache {
		t.Errorf("warm key d source = %q, want cache", src)
	}
	if src := mustDo(t, c, "a", sweepOfSize("a", 1<<10)); src != SourceEngine {
		t.Errorf("evicted key a source = %q, want engine (it should have been evicted)", src)
	}

	// LRU order follows use, not insertion: touching an old key spares it.
	c2 := NewResultCache(budget)
	for _, key := range []string{"a", "b", "c"} {
		mustDo(t, c2, key, sweepOfSize(key, 1<<10))
	}
	mustDo(t, c2, "a", nil) // warm a
	mustDo(t, c2, "d", sweepOfSize("d", 1<<10))
	if src := mustDo(t, c2, "a", nil); src != SourceCache {
		t.Errorf("recently-used a was evicted; source = %q", src)
	}
	if src := mustDo(t, c2, "b", sweepOfSize("b", 1<<10)); src != SourceEngine {
		t.Errorf("cold b survived; source = %q, want engine", src)
	}
}

func TestResultCacheOversizedEntryPassesThrough(t *testing.T) {
	c := NewResultCache(512)
	big := sweepOfSize("big", 4<<10)
	mustDo(t, c, "big", big)
	// The just-inserted entry is never evicted, even over budget.
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("oversized entry not resident: %+v", st)
	}
	if src := mustDo(t, c, "big", nil); src != SourceCache {
		t.Errorf("oversized resident source = %q, want cache", src)
	}
	// The next insert displaces it.
	mustDo(t, c, "next", sweepOfSize("next", 64))
	if src := mustDo(t, c, "big", big); src != SourceEngine {
		t.Errorf("oversized entry survived a later insert; source = %q", src)
	}
}

func TestResultCacheNegativeBudgetDisablesRetention(t *testing.T) {
	c := NewResultCache(-1)
	sw := sweepOfSize("x", 64)
	mustDo(t, c, "x", sw)
	if src := mustDo(t, c, "x", sw); src != SourceEngine {
		t.Errorf("retention-disabled repeat source = %q, want engine", src)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("retention-disabled cache holds %d entries / %d bytes", st.Entries, st.Bytes)
	}
}

// TestResultCacheCoalesceConcurrentWithEviction is the satellite stress:
// single-flight waiters coalescing on hot keys while distinct cold keys
// churn the LRU past its byte budget. Every waiter must get the leader's
// result, and the eviction loop must never break the flights table.
func TestResultCacheCoalesceConcurrentWithEviction(t *testing.T) {
	one := sweepOfSize("seed", 1<<10)
	c := NewResultCache(2 * one.sizeBytes()) // room for ~2 sweeps: constant churn

	const followers = 8
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	leaderRan := make(chan struct{}, 1)

	var wg sync.WaitGroup
	results := make([]Source, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw, src, err := c.Do(context.Background(), "hot", func() (*Sweep, error) {
				leaderRan <- struct{}{}
				started.Done()
				<-release // hold the flight open so followers pile up
				return sweepOfSize("hot", 1<<10), nil
			})
			if err != nil || sw == nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = src
		}(i)
	}
	started.Wait() // the leader is inside run; everyone else must join it

	// Churn the LRU with cold keys while the hot flight is open.
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("cold-%d", i)
		mustDo(t, c, key, sweepOfSize(key, 1<<10))
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("cold churn produced no evictions; pressure test is vacuous")
	}
	close(release)
	wg.Wait()

	engines, coalesced, cached := 0, 0, 0
	for _, src := range results {
		switch src {
		case SourceEngine:
			engines++
		case SourceCoalesced:
			coalesced++
		case SourceCache:
			cached++
		}
	}
	if engines != 1 {
		t.Errorf("%d hot-key callers led a run, want exactly 1", engines)
	}
	// A follower that races in after the flight closed hits the LRU instead;
	// either way nobody re-ran the engine.
	if coalesced+cached != followers {
		t.Errorf("coalesced %d + cached %d != %d followers", coalesced, cached, followers)
	}
	if got := len(leaderRan); got != 1 {
		t.Errorf("run executed %d times for the hot key, want 1", got+0)
	}
	// The hot sweep was inserted after the flight; it is now the warmest.
	if src := mustDo(t, c, "hot", nil); src != SourceCache {
		t.Errorf("post-flight hot key source = %q, want cache", src)
	}
}

// TestResultCacheFollowerRetriesAfterLeaderCancel pins the takeover
// semantics: a leader that dies of its own context must not poison
// followers whose contexts are still live — one of them re-leads.
func TestResultCacheFollowerRetriesAfterLeaderCancel(t *testing.T) {
	c := NewResultCache(0)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(context.Background(), "k", func() (*Sweep, error) {
			close(leaderIn)
			<-leaderOut
			return nil, context.DeadlineExceeded // the leader's own deadline fired
		})
	}()
	<-leaderIn

	// The follower joins the doomed flight, then must retry and lead its own
	// successful run. (If it races in after the leader already failed, it
	// simply leads directly — the assertions hold either way.)
	var follower Source
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, follower, followerErr = c.Do(context.Background(), "k", func() (*Sweep, error) {
			return sweepOfSize("k", 64), nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // give the follower time to join the flight
	close(leaderOut)
	wg.Wait()

	if !errors.Is(leaderErr, context.DeadlineExceeded) {
		t.Errorf("leader error = %v, want its own DeadlineExceeded", leaderErr)
	}
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's death: %v", followerErr)
	}
	if follower != SourceEngine {
		t.Errorf("follower source = %q, want engine (it re-led the run)", follower)
	}
	if st := c.Stats(); st.Runs != 2 {
		t.Errorf("runs = %d, want 2 (failed leader + follower takeover)", st.Runs)
	}
}

// TestResultCacheFollowerHonorsOwnContext: a waiter whose own context dies
// while the flight is open returns its own error promptly.
func TestResultCacheFollowerHonorsOwnContext(t *testing.T) {
	c := NewResultCache(0)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})
	defer close(leaderOut)
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (*Sweep, error) {
			close(leaderIn)
			<-leaderOut
			return sweepOfSize("k", 64), nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := c.Do(ctx, "k", func() (*Sweep, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled follower took %v to return", elapsed)
	}
}

// TestResultCacheRealErrorPropagates: a genuine engine failure (not a
// context death) reaches followers as-is — no retry storm.
func TestResultCacheRealErrorPropagates(t *testing.T) {
	c := NewResultCache(0)
	boom := errors.New("engine exploded")
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.Do(context.Background(), "k", func() (*Sweep, error) {
			close(leaderIn)
			<-leaderOut
			return nil, boom
		})
	}()
	<-leaderIn
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, followerErr = c.Do(context.Background(), "k", func() (*Sweep, error) {
			t.Error("follower re-ran after a non-context failure")
			return nil, nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // give the follower time to join the flight
	close(leaderOut)
	wg.Wait()
	if !errors.Is(followerErr, boom) {
		t.Errorf("follower error = %v, want the leader's failure", followerErr)
	}
	// The failure is not retained: the next caller leads a fresh run.
	if src := mustDo(t, c, "k", sweepOfSize("k", 64)); src != SourceEngine {
		t.Errorf("post-failure source = %q, want engine", src)
	}
}

// TestResultCacheLeaderPanicReleasesFollowers: a run that panics still
// retires its flight. The panic reaches the leader alone; a follower that
// joined the flight gets an error at once instead of waiting out its own
// deadline, and the next caller leads a fresh run.
func TestResultCacheLeaderPanicReleasesFollowers(t *testing.T) {
	c := NewResultCache(0)
	leaderIn := make(chan struct{})
	leaderOut := make(chan struct{})

	var leaderPanic any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { leaderPanic = recover() }()
		_, _, _ = c.Do(context.Background(), "k", func() (*Sweep, error) {
			close(leaderIn)
			<-leaderOut
			panic("engine divided by zero")
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var followerErr error
	var followerWait time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		_, _, followerErr = c.Do(ctx, "k", func() (*Sweep, error) {
			t.Error("follower re-ran after the leader's run panicked")
			return nil, nil
		})
		followerWait = time.Since(start)
	}()
	time.Sleep(20 * time.Millisecond) // give the follower time to join the flight
	close(leaderOut)
	wg.Wait()

	if leaderPanic == nil {
		t.Error("the run's panic did not reach the leader")
	}
	if followerErr == nil || errors.Is(followerErr, context.DeadlineExceeded) || !strings.Contains(followerErr.Error(), "panicked") {
		t.Errorf("follower error = %v, want the run's panic reported as an error", followerErr)
	}
	if followerWait > 2*time.Second {
		t.Errorf("follower waited %v for a flight whose run had panicked", followerWait)
	}
	next, cancelNext := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelNext()
	_, src, err := c.Do(next, "k", func() (*Sweep, error) { return sweepOfSize("k", 64), nil })
	if err != nil || src != SourceEngine {
		t.Errorf("post-panic Do = %q, %v; want a fresh engine run", src, err)
	}
}
