package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"bittactical/internal/metrics"
	"bittactical/internal/sched"
)

// Options tunes the simulation engine without changing its results: any
// Parallelism and any cache setting produce bit-identical output, because
// every worker accumulates a private per-filter-group shard and the shards
// are merged in a fixed order.
type Options struct {
	// Parallelism bounds the worker goroutines executing (layer,
	// filter-group) work items; 0 means GOMAXPROCS. 1 runs fully inline
	// (no goroutines), which is also the fallback for single-item loads.
	Parallelism int
	// Cache overrides the schedule cache (nil = sched.Shared). Schedules
	// depend only on (weights, pattern, scheduler), so the default shared
	// cache lets back-end sweeps schedule each filter group once.
	Cache *sched.Cache
	// PlaneCache overrides the activation cost plane cache (nil =
	// SharedPlanes). Planes depend only on (activations, lowering geometry,
	// back-end, width), so the default shared cache lets sweeps over
	// front-end patterns build each layer's plane once.
	PlaneCache *PlaneCache
	// OnLayerResult, when set, is invoked the moment one (config, layer)
	// result has fully merged — from whichever worker goroutine finished
	// the layer's last filter group, concurrently with callbacks for other
	// layers. cfg indexes the sweep's config list, layer the config's
	// lowered-layer list (for SimulateSweepContext, the model's layer
	// list). The callback must be safe for concurrent use and should not
	// block: the pool worker that fired it cannot claim more work until it
	// returns. The returned results are unaffected — streaming consumers
	// get early sight of each layer, not a different answer.
	OnLayerResult func(cfg, layer int, r LayerResult)
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) cache() *sched.Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return sched.Shared
}

func (o Options) planeCache() *PlaneCache {
	if o.PlaneCache != nil {
		return o.PlaneCache
	}
	return SharedPlanes
}

// Pool occupancy and throughput, exported process-wide: the busy-worker
// gauge (with its high-water mark) shows how full the pool runs, the item
// counter its lifetime throughput.
var (
	poolBusy  = metrics.Default.Gauge("sim_pool_busy_workers")
	poolItems = metrics.Default.Counter("sim_pool_items_total")
)

// runPool executes fn(w, 0..n-1) on up to `workers` goroutines, passing
// each invocation the dense index w of the worker running it (0 on the
// serial inline path) so callers can hand every worker private scratch at
// pool spin-up instead of per item. Items live in a single shared queue
// and idle workers steal the next unclaimed index, so a slow filter group
// (large layer, dense weights) never idles the rest of the pool behind a
// static partition.
//
// Pool metrics are worker-granular: each worker ticks the busy gauge once
// for its lifetime and folds its item count into the process counter once
// at drain, so the hot claim loop performs no shared atomic writes. Totals
// are exact whenever runPool has returned.
//
// The done channel (a context's Done, or nil for run-to-completion) is
// checked before every claim: once it closes, no worker claims another item
// and runPool returns false. Items already claimed run to completion, so a
// cancelled pool leaves no goroutines behind — the WaitGroup drains as each
// worker finishes its current item.
//
// A worker panic poisons the queue the same way: every worker stops
// claiming at its next iteration instead of draining the remaining items,
// and the first panic is re-raised on the caller's goroutine as a
// *WorkerPanic carrying the original value and the worker's stack (the
// runtime traceback of the re-raise shows only the caller's stack).
func runPool(done <-chan struct{}, workers, n int, fn func(w, i int)) (completed bool) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		poolBusy.Inc()
		defer poolBusy.Dec()
		var count int64
		defer func() { poolItems.Add(count) }()
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return false
			default:
			}
			fn(0, i)
			count++
		}
		return true
	}
	// One poolRun carries all shared state, so spawning a pool of any width
	// in steady state costs no heap allocations that scale with the worker
	// count: the argless per-index spawn closures (a `go` statement with
	// arguments heap-allocates a hidden thunk per spawn) are built once per
	// poolRun and recycled with it.
	st := poolRunPool.Get().(*poolRun)
	st.done, st.fn, st.n = done, fn, n
	st.next.Store(0)
	st.panicked.Store(nil)
	st.poisoned.Store(false)
	for len(st.wfns) < workers {
		w := len(st.wfns)
		st.wfns = append(st.wfns, func() { st.worker(w) })
	}
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go st.wfns[w]()
	}
	st.wg.Wait()
	p := st.panicked.Load()
	completed = int(st.next.Load()) >= n
	st.done, st.fn = nil, nil
	poolRunPool.Put(st)
	if p != nil {
		panic(p)
	}
	select {
	case <-done:
		return false
	default:
		return completed
	}
}

// poolRun is one parallel runPool invocation's shared state, pooled so a
// steady stream of pool entries reuses one allocation.
type poolRun struct {
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Pointer[WorkerPanic]
	poisoned atomic.Bool
	done     <-chan struct{}
	fn       func(w, i int)
	n        int
	// wfns[w] is the reusable spawn closure for worker index w; it reads
	// the run's work through the stable *poolRun receiver, so the same
	// closure serves every invocation this state is recycled into.
	wfns []func()
}

var poolRunPool = sync.Pool{New: func() any { return new(poolRun) }}

// worker is the goroutine body of one pool worker; see runPool for the
// claim-loop, cancellation, metrics, and panic contracts.
func (st *poolRun) worker(w int) {
	defer st.wg.Done()
	poolBusy.Inc()
	defer poolBusy.Dec()
	var count int64
	defer func() { poolItems.Add(count) }()
	defer func() {
		if r := recover(); r != nil {
			st.panicked.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
			st.poisoned.Store(true)
		}
	}()
	for !st.poisoned.Load() {
		select {
		case <-st.done:
			return
		default:
		}
		i := int(st.next.Add(1)) - 1
		if i >= st.n {
			return
		}
		st.fn(w, i)
		count++
	}
}

// WorkerPanic is the value runPool re-raises after a worker panic: the
// original panic value plus the worker goroutine's stack at recover time.
// It implements error (and Unwrap, when the original value was an error) so
// recovering callers can still match the underlying cause.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("sim: worker panic: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

func (p *WorkerPanic) String() string { return p.Error() }

// Unwrap exposes the original panic value when it was an error.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}
