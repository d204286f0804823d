package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
	"bittactical/internal/sim"
)

// Shard mode spreads one sweep's (config, layer) grid across worker
// processes: a coordinator (tclserve -workers url,url,…) partitions the
// model's layers over the workers — by LPT bin packing on predicted serial
// cycles (sim.EstimateSweepLayerCosts), so the conv1-class layers that
// dominate cost do not pile onto one shard — each worker simulates its
// layer slice for every config (POST /v1/shard → sim.SimulateGridContext),
// and the coordinator reassembles cells in fixed (config, layer) order.
//
// The merge is deterministic and bit-identical to single-process output at
// any worker count AND any partition for the same reason the in-process
// pool is: a layer's result depends only on its own filter groups, every
// cell is an integer census, and the reassembly (and the totals summed from
// it) touches cells in the same fixed order however they were computed.
// Failover preserves the property: a failed worker's layers are
// re-dispatched to surviving workers (already-landed cells are reused, a
// layer is never computed twice), and since every cell is
// partition-independent, a sweep that survives a mid-run worker death is
// byte-identical to one that never saw the failure.

// ShardRequest is the body of POST /v1/shard — the coordinator-to-worker
// leg. Layers indexes the model's layer list; the response carries cell
// [config][i] for Layers[i].
type ShardRequest struct {
	ModelSpec
	Configs     []ConfigSpec `json:"configs"`
	Layers      []int        `json:"layers"`
	Parallelism int          `json:"parallelism,omitempty"`
	TimeoutMs   int64        `json:"timeout_ms,omitempty"`
}

// ShardResponse is one worker's slice of the grid.
type ShardResponse struct {
	Model string `json:"model"`
	// Configs are the worker's resolved config names, for coordinator
	// cross-checking.
	Configs []string `json:"configs"`
	// Cells[k][i] is config k's result for layer Layers[i].
	Cells [][]LayerPayload `json:"cells"`
}

// shardError marks a worker-leg failure so the coordinator can answer 502
// (the request was fine; the backend fleet was not).
type shardError struct {
	worker string
	err    error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard worker %s: %v", e.worker, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// fleetMismatchError marks a cross-worker config divergence: a worker
// resolved the sweep's configs to different names than the coordinator.
// Unlike a transport failure this is NOT retryable — the fleet is
// inconsistent (version skew, divergent back-end registries) and any merge
// would silently mix grids from different designs — so the dispatch loop
// cancels every sibling RPC and fails the request immediately.
type fleetMismatchError struct {
	worker string
	detail string
}

func (e *fleetMismatchError) Error() string {
	return fmt.Sprintf("shard worker %s: config mismatch: %s", e.worker, e.detail)
}

// validateShardResponse checks a worker reply's shape BEFORE any cell is
// merged or emitted: resolved config names elementwise against the
// coordinator's own resolution, then the full Cells rectangle. A malformed
// reply (short rows, wrong counts) is a retryable worker failure; a
// config-name divergence is a fleetMismatchError. Nothing downstream may
// index resp.Cells until this returns nil.
func validateShardResponse(resp *ShardResponse, worker string, names []string, sliceLen int) error {
	if len(resp.Configs) != len(names) {
		return &shardError{worker: worker, err: fmt.Errorf("resolved %d configs, coordinator resolved %d", len(resp.Configs), len(names))}
	}
	for k, name := range resp.Configs {
		if name != names[k] {
			return &fleetMismatchError{worker: worker, detail: fmt.Sprintf("config %d resolved to %q, coordinator resolved %q", k, name, names[k])}
		}
	}
	if len(resp.Cells) != len(names) {
		return &shardError{worker: worker, err: fmt.Errorf("returned %d cell rows for %d configs", len(resp.Cells), len(names))}
	}
	for k := range resp.Cells {
		if len(resp.Cells[k]) != sliceLen {
			return &shardError{worker: worker, err: fmt.Errorf("returned %d cells for %d layers", len(resp.Cells[k]), sliceLen)}
		}
	}
	return nil
}

// dispatchShards fans the request's layer grid out over s.cfg.Workers with
// retry/failover and reassembles the full [config][layer] grid. emit, when
// non-nil, observes each landed cell exactly once, outside the coordinator
// lock, as its worker's response lands (the shard analog of the engine's
// OnLayerResult).
//
// The dispatch is a bounded round loop: each round partitions the
// still-pending layers over the workers currently believed alive (LPT on
// predicted cost), fires the slices concurrently, folds successful
// responses into the grid, and carries failed workers' slices into the
// next round — landed cells are never recomputed. A worker that fails is
// excluded for the rest of the request and reported to the health tracker.
// Unrecoverable conditions (config mismatch, expired request context, no
// surviving workers) cancel every sibling RPC immediately instead of
// letting them simulate to completion for a doomed request.
func (s *Server) dispatchShards(ctx context.Context, req SimulateRequest, m *nn.Model, cfgs []arch.Config, emit func(cfg, layer int, lp LayerPayload)) ([][]LayerPayload, []string, error) {
	workers := s.cfg.Workers
	nLayers := len(m.Layers)
	names := make([]string, len(cfgs))
	for k := range cfgs {
		names[k] = cfgs[k].Name
	}
	grid := make([][]LayerPayload, len(cfgs))
	for k := range grid {
		grid[k] = make([]LayerPayload, nLayers)
	}
	if nLayers == 0 {
		return grid, names, nil
	}
	// Cost-keyed partitioning; estimation failure (a layer geometry the
	// estimator cannot lower) degrades to unit costs, never to a request
	// error — partition quality is a performance concern, not correctness.
	costs, err := sim.EstimateSweepLayerCosts(cfgs, m)
	if err != nil {
		costs = nil
	}
	// Workers require explicit configs (handleShard rejects an empty list),
	// so a default-sweep request is spelled out before dispatch.
	specs := req.Configs
	if len(specs) == 0 {
		specs = DefaultConfigs()
	}

	var (
		mu       sync.Mutex // guards grid writes, pending bookkeeping, lastErr
		lastErr  error
		excluded = make([]bool, len(workers)) // failed during THIS request
		pending  = allLayers(nLayers)
	)
	maxRounds := 1 + s.shardRetries()
	for round := 0; round < maxRounds && len(pending) > 0; round++ {
		if round > 0 {
			s.shardRetryRounds.Inc()
			s.shardFailoverLayers.Add(int64(len(pending)))
			if err := s.shardBackoffWait(ctx, round); err != nil {
				return nil, nil, err
			}
		}
		// Candidate workers: not failed this request, not known-down. When
		// health says the whole fleet is down, optimistically try everyone
		// not already excluded — the tracker may be stale, and a probe-by
		// -dispatch beats refusing service.
		var cand []int
		for w := range workers {
			if !excluded[w] && (s.health == nil || s.health.dispatchable(w)) {
				cand = append(cand, w)
			}
		}
		if len(cand) == 0 {
			for w := range workers {
				if !excluded[w] {
					cand = append(cand, w)
				}
			}
		}
		if len(cand) == 0 {
			break // every worker has failed this request
		}

		slices := PartitionLPT(pending, costs, len(cand))
		timeoutMs := int64(0)
		if dl, ok := ctx.Deadline(); ok {
			timeoutMs = int64(time.Until(dl) / time.Millisecond)
			if timeoutMs < 1 {
				timeoutMs = 1
			}
		}
		rctx, rcancel := context.WithCancel(ctx)
		var (
			wg          sync.WaitGroup
			nextPending []int
			fatal       error
			remaining   = len(workers) // workers not yet excluded, fleet-wide
		)
		for w := range workers {
			if excluded[w] {
				remaining--
			}
		}
		for ci, w := range cand {
			slice := slices[ci]
			if len(slice) == 0 {
				continue
			}
			sreq := ShardRequest{
				ModelSpec:   req.ModelSpec,
				Configs:     specs,
				Layers:      slice,
				Parallelism: req.Parallelism,
				TimeoutMs:   timeoutMs,
			}
			wg.Add(1)
			go func(w int, base string, slice []int) {
				defer wg.Done()
				s.shardDispatches.Inc()
				resp, err := s.postShard(rctx, base, sreq)
				if err == nil {
					err = validateShardResponse(resp, base, names, len(slice))
				}
				if err != nil {
					s.shardFailures.Inc()
					// Blame the worker only when the round was still live: an
					// RPC aborted by the request deadline or a sibling's
					// cancel says nothing about this worker's health.
					roundLive := rctx.Err() == nil
					if roundLive && s.health != nil {
						s.health.markFailure(w)
					}
					mu.Lock()
					if mm, ok := err.(*fleetMismatchError); ok {
						if fatal == nil {
							fatal = mm
						}
						mu.Unlock()
						rcancel() // satellite: cancel siblings, don't wg.Wait them out
						return
					}
					if roundLive || lastErr == nil {
						lastErr = &shardError{worker: base, err: err}
					}
					if roundLive {
						excluded[w] = true
						remaining--
					}
					doomed := remaining == 0
					nextPending = append(nextPending, slice...)
					mu.Unlock()
					if doomed {
						// No worker left to fail over to: the request cannot
						// succeed, so stop the siblings' simulations now.
						rcancel()
					}
					return
				}
				if s.health != nil {
					s.health.markSuccess(w)
				}
				// Merge under the lock, emit outside it: one slow NDJSON
				// client must not stall every other worker's merge.
				mu.Lock()
				for i, li := range slice {
					for k := range grid {
						grid[k][li] = resp.Cells[k][i]
					}
				}
				mu.Unlock()
				if emit != nil {
					for k := range resp.Cells {
						for i, li := range slice {
							emit(k, li, resp.Cells[k][i])
						}
					}
				}
			}(w, workers[w], slice)
		}
		wg.Wait()
		rcancel()
		if fatal != nil {
			return nil, nil, fatal
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sort.Ints(nextPending)
		pending = nextPending
	}
	if len(pending) > 0 {
		if lastErr == nil {
			lastErr = &shardError{worker: "(fleet)", err: fmt.Errorf("%d layers undispatched after %d rounds", len(pending), maxRounds)}
		}
		return nil, nil, lastErr
	}
	return grid, names, nil
}

// shardRetries resolves the configured re-dispatch round budget.
func (s *Server) shardRetries() int {
	switch {
	case s.cfg.ShardRetries < 0:
		return 0
	case s.cfg.ShardRetries == 0:
		return defaultShardRetries
	default:
		return s.cfg.ShardRetries
	}
}

// shardBackoffWait pauses before re-dispatch round `round` (1-based),
// doubling the configured base per round, honoring ctx.
func (s *Server) shardBackoffWait(ctx context.Context, round int) error {
	d := s.cfg.ShardBackoff
	if d == 0 {
		d = defaultShardBackoff
	}
	if d < 0 {
		return ctx.Err()
	}
	d <<= uint(round - 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// postShard runs one coordinator-to-worker call.
func (s *Server) postShard(ctx context.Context, base string, sreq ShardRequest) (*ShardResponse, error) {
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := s.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		return nil, fmt.Errorf("status %d: %s", hresp.StatusCode, bytes.TrimSpace(msg))
	}
	var out ShardResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
