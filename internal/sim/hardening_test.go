package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// cancellationModel builds a model big enough that cancellation lands
// mid-run at every realistic scheduling interleaving.
func cancellationModel(t *testing.T) (*nn.Model, []*nn.Lowered) {
	t.Helper()
	cfg := nn.DefaultZoo()
	cfg.ChannelScale, cfg.SpatialScale = 0.2, 0.3
	m, err := nn.BuildModel("AlexNet-ES", cfg)
	if err != nil {
		t.Fatal(err)
	}
	lws, err := m.Lowered(16, m.GenerateActs(7))
	if err != nil {
		t.Fatal(err)
	}
	return m, lws
}

// TestSimulateCancellation pins the tentpole contract: a context cancelled
// mid-model returns promptly with ctx.Err() and no partial result, leaks no
// goroutines, and a live context that is never cancelled yields output
// bit-identical to a background-context run.
func TestSimulateCancellation(t *testing.T) {
	m, _ := cancellationModel(t)
	acts := m.GenerateActs(7)
	cfgs := []arch.Config{arch.NewTCL(sched.T(2, 5), arch.TCLe)}

	want, err := SimulateSweepContext(context.Background(), cfgs, m, acts, fresh(4))
	if err != nil {
		t.Fatal(err)
	}

	// Live but uncancelled context: bit-identical to the background run.
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	got, err := SimulateSweepContext(live, cfgs, m, acts, fresh(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("uncancelled live context differs from the background run")
	}

	// Already-cancelled context: immediate ctx.Err(), nil result.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SimulateSweepContext(pre, cfgs, m, acts, Options{Parallelism: 4})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled: got (%v, %v), want (nil, context.Canceled)", res, err)
	}

	// Cancellation mid-run: prompt partial-free return and no goroutine
	// leak. The deadline is far shorter than the model's cold-cache
	// simulate time (hundreds of ms at this scale), so it always lands
	// mid-run.
	before := runtime.NumGoroutine()
	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	start := time.Now()
	res, err = SimulateSweepContext(ctx, cfgs, m, acts, fresh(4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run cancel: err = %v, want DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("mid-run cancel returned a partial result")
	}
	// Prompt: bounded by one in-flight chunk per worker, far below the
	// full-model wall time.
	if elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v, want prompt return", elapsed)
	}
	// Workers exit after their current item; give stragglers a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after cancelled simulate", before, after)
	}
}

// TestSimulateLayerContextCancel covers the single-layer ctx entry point.
func TestSimulateLayerContextCancel(t *testing.T) {
	lw := testConv(t, 41, 40, 24, 3, 3, 6, 0.6, 0.4)
	cfg := arch.NewTCL(sched.T(2, 5), arch.TCLe)

	want := simLayer(t, cfg, lw, fresh(1))
	got, err := SimulateLayerContext(context.Background(), cfg, lw, fresh(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("uncancelled SimulateLayerContext differs from serial")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateLayerContext(ctx, cfg, lw, Options{Parallelism: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled layer simulate: err = %v, want context.Canceled", err)
	}
}

// TestRunPoolPanicPoisonsQueue pins the satellite bugfix: after one worker
// panics, the remaining workers must stop claiming items promptly instead
// of draining the whole queue behind the boxed panic.
func TestRunPoolPanicPoisonsQueue(t *testing.T) {
	const n = 100000
	const workers = 4
	var executed atomic.Int64
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		runPool(nil, workers, n, func(_, i int) {
			if i == 0 {
				panic("boom at item 0")
			}
			executed.Add(1)
			time.Sleep(10 * time.Microsecond)
		})
	}()
	if recovered == nil {
		t.Fatal("worker panic was not re-raised")
	}
	// Without poisoning the surviving workers drain all ~100k items; with
	// it each stops at its next claim. A generous bound still proves the
	// queue was abandoned, not drained.
	if got := executed.Load(); got > n/10 {
		t.Errorf("%d items executed after the panic, want prompt poisoning (<%d)", got, n/10)
	}
}

// TestRunPoolPanicPreservesStack asserts the re-raised value carries the
// original panic payload and the worker goroutine's stack trace.
func TestRunPoolPanicPreservesStack(t *testing.T) {
	sentinel := errors.New("original cause")
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		runPool(nil, 4, 64, func(_, i int) {
			if i == 3 {
				panic(sentinel)
			}
		})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("re-raised value is %T, want *WorkerPanic", recovered)
	}
	if wp.Value != sentinel {
		t.Errorf("boxed value = %v, want the original sentinel", wp.Value)
	}
	if !errors.Is(wp, sentinel) {
		t.Error("errors.Is cannot reach the original error through the box")
	}
	msg := wp.Error()
	if !strings.Contains(msg, "original cause") || !strings.Contains(msg, "worker stack:") {
		t.Errorf("message lacks cause or stack:\n%s", msg)
	}
	if !strings.Contains(msg, "runPool") {
		t.Errorf("preserved stack does not mention the worker frame:\n%s", msg)
	}
}

// TestRunPoolDoneStopsClaims covers the pool-level cancellation primitive
// directly, including the inline (workers=1) path.
func TestRunPoolDoneStopsClaims(t *testing.T) {
	for _, workers := range []int{1, 4} {
		done := make(chan struct{})
		close(done)
		var executed atomic.Int64
		completed := runPool(done, workers, 1000, func(_, i int) { executed.Add(1) })
		if completed {
			t.Errorf("workers=%d: pool reported completion under a closed done channel", workers)
		}
		// Closed before the first claim: at most the items already in
		// flight (zero here, since done is checked before each claim).
		if got := executed.Load(); got != 0 {
			t.Errorf("workers=%d: %d items ran after done closed before start", workers, got)
		}
	}
	// A nil done channel never fires: the pool must run to completion.
	var executed atomic.Int64
	if !runPool(nil, 4, 100, func(_, i int) { executed.Add(1) }) {
		t.Error("nil done: pool did not report completion")
	}
	if executed.Load() != 100 {
		t.Errorf("nil done: executed %d items, want 100", executed.Load())
	}
}

// TestCeilDiv64 pins the satellite bugfix: a non-positive divisor is a
// loud panic, not a silently plausible cycle count, and large dividends no
// longer risk the (a+b-1) overflow.
func TestCeilDiv64(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 1, 0},
		{1, 1, 1},
		{7, 2, 4},
		{8, 2, 4},
		{9, 4, 3},
		// Overflow-adjacent: (a+b-1) would wrap for these.
		{math.MaxInt64, 1, math.MaxInt64},
		{math.MaxInt64, 2, math.MaxInt64/2 + 1},
		{math.MaxInt64 - 1, math.MaxInt64, 1},
		{math.MaxInt64, math.MaxInt64, 1},
	}
	for _, c := range cases {
		if got := ceilDiv64(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv64(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	for _, b := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("ceilDiv64(10, %d) did not panic", b)
					return
				}
				if !strings.Contains(fmt.Sprint(r), "non-positive divisor") {
					t.Errorf("ceilDiv64(10, %d) panic = %v, want descriptive message", b, r)
				}
			}()
			ceilDiv64(10, b)
		}()
	}
}
