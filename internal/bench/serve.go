package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/serve"
	"bittactical/internal/sim"
)

// serveShape is one load shape the serve suite measures.
type serveShape struct {
	id          string
	requests    int
	concurrency int
	unique      bool // rotate act_seed: defeat coalescing and the result cache
	stream      bool
}

// RunServe measures the evaluation service end to end: a fresh in-process
// tclserve behind a real loopback HTTP listener, driven by the tclload
// machinery. Three load shapes bracket the serving tier:
//
//   - serve/engine: every request distinct — raw engine throughput through
//     the HTTP surface (coalesce hit rate 0 by construction).
//   - serve/hot: identical concurrent requests — the coalesce + result-LRU
//     path; exactly one engine run, hit rate (n-1)/n.
//   - serve/stream: the hot shape over NDJSON streaming responses.
//
// Latency percentiles follow the ns/op comparison policy (same-host only);
// the coalesce hit rate is a load-shape invariant and gates everywhere.
// allocs/op is the process-wide allocation count per request — client and
// server share the process, so it covers the full round trip.
func RunServe(logf Logf, _ RunOpts) (*File, error) {
	f := NewFile("AlexNet-ES channel scale 0.1, spatial scale 0.25, tcle:T8<2,5>, loopback HTTP")
	for _, sh := range []serveShape{
		{id: "serve/engine", requests: 6, concurrency: 2, unique: true},
		{id: "serve/hot", requests: 32, concurrency: 8},
		{id: "serve/stream", requests: 16, concurrency: 4, stream: true},
	} {
		rec, rep, err := measureServe(sh)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", sh.id, err)
		}
		f.Benchmarks = append(f.Benchmarks, rec)
		logf.printf("%s: p50 %.1fms, p99 %.1fms, %.1f req/s, hit rate %.3f, %d allocs/op",
			rec.ID, rep.P50Ms, rep.P99Ms, rep.RPS, rep.CoalesceHitRate, rec.AllocsPerOp)
	}
	shard, err := shardBalanceRecords(logf)
	if err != nil {
		return nil, err
	}
	f.Benchmarks = append(f.Benchmarks, shard...)
	return f, nil
}

// shardBalanceWorkers is the fleet size the balance rows model — a typical
// small shard deployment, and enough workers that round-robin's
// dominant-layer skew is visible on every zoo model.
const shardBalanceWorkers = 4

// shardBalanceRecords computes the coordinator's predicted shard balance —
// max and mean predicted shard cost plus their ratio — for every zoo model
// under the default sweep, for both the LPT partitioner and the round-robin
// baseline. Pure arithmetic (sim.EstimateSweepLayerCosts plus bin packing),
// no simulation and no timing, so the rows are deterministic,
// host-independent, and gate everywhere: a partitioner change that skews
// shard loads moves shard_imbalance on any machine. The LPT row must never
// pack worse than round-robin — that inversion fails the generation itself,
// not just the baseline compare.
func shardBalanceRecords(logf Logf) ([]Record, error) {
	cfgs, err := buildDefaultConfigs()
	if err != nil {
		return nil, err
	}
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.125, 0.35
	var out []Record
	for _, name := range nn.ModelNames {
		m, err := nn.BuildModel(name, z)
		if err != nil {
			return nil, fmt.Errorf("bench: shard-balance: %s: %w", name, err)
		}
		costs, err := sim.EstimateSweepLayerCosts(cfgs, m)
		if err != nil {
			return nil, fmt.Errorf("bench: shard-balance: %s: %w", name, err)
		}
		layers := make([]int, len(m.Layers))
		for i := range layers {
			layers[i] = i
		}
		lpt := serve.BalanceOf(serve.PartitionLPT(layers, costs, shardBalanceWorkers), costs)
		rr := serve.BalanceOf(serve.PartitionRoundRobin(layers, shardBalanceWorkers), costs)
		if lpt.Imbalance > rr.Imbalance {
			return nil, fmt.Errorf("bench: shard-balance: %s: LPT imbalance %.3f worse than round-robin %.3f", name, lpt.Imbalance, rr.Imbalance)
		}
		for _, row := range []struct {
			strategy string
			b        serve.ShardBalance
		}{{"lpt", lpt}, {"roundrobin", rr}} {
			out = append(out, Record{
				ID:             fmt.Sprintf("serve/shard-balance/%s/%s", name, row.strategy),
				GoMaxProcs:     runtime.GOMAXPROCS(0),
				ShardMaxCost:   row.b.Max,
				ShardMeanCost:  row.b.Mean,
				ShardImbalance: row.b.Imbalance,
			})
		}
		logf.printf("serve/shard-balance/%s: lpt %.3f vs roundrobin %.3f (max/mean over %d shards)",
			name, lpt.Imbalance, rr.Imbalance, shardBalanceWorkers)
	}
	return out, nil
}

// buildDefaultConfigs resolves the serving tier's default sweep into
// arch configs for cost estimation.
func buildDefaultConfigs() ([]arch.Config, error) {
	specs := serve.DefaultConfigs()
	cfgs := make([]arch.Config, len(specs))
	for i, spec := range specs {
		var err error
		if cfgs[i], err = spec.Build(); err != nil {
			return nil, fmt.Errorf("bench: shard-balance: configs[%d]: %w", i, err)
		}
	}
	return cfgs, nil
}

// measureServe runs one load shape against a fresh server (fresh result
// cache and coalescer; the process-wide schedule and plane caches are reset
// so every shape pays the same warm-up) and packages the report as a
// Record.
func measureServe(sh serveShape) (Record, *serve.LoadReport, error) {
	sched.Shared.Reset()
	sim.SharedPlanes.Reset()
	// Pin the GC off from the cold reset through the window, as
	// measureSteadySim does: a collection mid-window clears the sync.Pools,
	// and the refill would be charged to the requests that follow it.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	s := serve.New(serve.Config{
		MaxInFlight:    sh.concurrency,
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     10 * time.Minute,
	})
	ts := httptest.NewServer(s.Routes())
	defer ts.Close()

	body := serve.SimulateRequest{
		Configs: []serve.ConfigSpec{{Backend: "tcle", Pattern: "T8<2,5>"}},
		Stream:  sh.stream,
	}
	body.Model = "AlexNet-ES"
	body.ChannelScale = 0.1
	body.SpatialScale = 0.25

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := processCPUNs()
	rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		BaseURL:     ts.URL,
		Requests:    sh.requests,
		Concurrency: sh.concurrency,
		Body:        body,
		UniqueSeeds: sh.unique,
	})
	cpuNs := processCPUNs() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Record{}, nil, err
	}
	if rep.Errors > 0 {
		return Record{}, nil, fmt.Errorf("%d of %d requests failed (statuses %v)", rep.Errors, rep.Requests, rep.StatusCount)
	}
	return Record{
		ID:              sh.id,
		Parallelism:     sh.concurrency,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		NsPerOp:         rep.MeanMs * 1e6,
		AllocsPerOp:     int64(m1.Mallocs-m0.Mallocs) / int64(sh.requests),
		WallNs:          int64(rep.WallMs * 1e6),
		CPUNs:           cpuNs,
		Iterations:      sh.requests,
		Contended:       Contended(sh.concurrency),
		P50Ns:           rep.P50Ms * 1e6,
		P99Ns:           rep.P99Ms * 1e6,
		RPS:             rep.RPS,
		CoalesceHitRate: rep.CoalesceHitRate,
	}, rep, nil
}
