package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configures one RunLoad drive against a running tclserve.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8371".
	BaseURL string
	// Requests is the total POST /v1/simulate count.
	Requests int
	// Concurrency is the number of in-flight requests (min 1).
	Concurrency int
	// Body is the request template every POST sends.
	Body SimulateRequest
	// UniqueSeeds rotates act_seed per request, defeating the result cache
	// and coalescer — the cold-path (engine) load shape. Off, every request
	// is identical: the hot-path shape that measures coalescing + cache.
	UniqueSeeds bool
	// Client overrides the HTTP client (nil = default, no client timeout —
	// the server's own deadline governs).
	Client *http.Client
}

// LoadReport is RunLoad's outcome.
type LoadReport struct {
	Requests    int         `json:"requests"`
	Errors      int         `json:"errors"`
	WallMs      float64     `json:"wall_ms"`
	RPS         float64     `json:"rps"`
	P50Ms       float64     `json:"p50_ms"`
	P90Ms       float64     `json:"p90_ms"`
	P99Ms       float64     `json:"p99_ms"`
	MeanMs      float64     `json:"mean_ms"`
	StatusCount map[int]int `json:"status_count"`
	// Server-side deltas over the drive, read from /metrics before and
	// after: engine runs led, requests that joined an in-flight identical
	// run, and finished-result LRU hits.
	CoalesceRuns   int64 `json:"coalesce_runs"`
	CoalesceJoined int64 `json:"coalesce_joined"`
	CacheHits      int64 `json:"cache_hits"`
	// CoalesceHitRate is the fraction of successful requests served
	// without their own engine run: (joined + cache hits) / requests.
	CoalesceHitRate float64 `json:"coalesce_hit_rate"`
}

// RunLoad drives BaseURL with Requests POSTs at the given concurrency and
// reports client-observed latency percentiles plus the server's coalesce
// and cache deltas.
func RunLoad(ctx context.Context, o LoadOptions) (*LoadReport, error) {
	if o.Requests < 1 {
		o.Requests = 1
	}
	if o.Concurrency < 1 {
		o.Concurrency = 1
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	before, err := fetchServeCounters(ctx, client, o.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: reading /metrics: %w", err)
	}

	type outcome struct {
		ms     float64
		status int
		err    error
	}
	outcomes := make([]outcome, o.Requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.Requests || ctx.Err() != nil {
					return
				}
				body := o.Body
				if o.UniqueSeeds {
					// Seed 0 means "default"; offset keeps every request
					// distinct from the template and from each other.
					body.ActSeed = int64(1000 + i)
				}
				buf, err := json.Marshal(body)
				if err != nil {
					outcomes[i] = outcome{err: err}
					continue
				}
				t0 := time.Now()
				status, err := postSimulate(ctx, client, o.BaseURL, buf, body.Stream)
				outcomes[i] = outcome{
					ms:     float64(time.Since(t0)) / float64(time.Millisecond),
					status: status,
					err:    err,
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	after, err := fetchServeCounters(ctx, client, o.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: reading /metrics: %w", err)
	}

	rep := &LoadReport{
		Requests:    o.Requests,
		WallMs:      float64(wall) / float64(time.Millisecond),
		StatusCount: map[int]int{},
	}
	var lat []float64
	var sum float64
	for _, oc := range outcomes {
		if oc.err != nil || oc.status != http.StatusOK {
			rep.Errors++
		}
		if oc.status != 0 {
			rep.StatusCount[oc.status]++
		}
		if oc.err == nil {
			lat = append(lat, oc.ms)
			sum += oc.ms
		}
	}
	if wall > 0 {
		rep.RPS = float64(o.Requests) / wall.Seconds()
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		rep.P50Ms = percentile(lat, 0.50)
		rep.P90Ms = percentile(lat, 0.90)
		rep.P99Ms = percentile(lat, 0.99)
		rep.MeanMs = sum / float64(len(lat))
	}
	rep.CoalesceRuns = after.runs - before.runs
	rep.CoalesceJoined = after.joined - before.joined
	rep.CacheHits = after.hits - before.hits
	if ok := o.Requests - rep.Errors; ok > 0 {
		rep.CoalesceHitRate = float64(rep.CoalesceJoined+rep.CacheHits) / float64(ok)
	}
	return rep, nil
}

// percentile reads the nearest-rank p-quantile from sorted latencies: the
// smallest value with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// postSimulate runs one request, draining the body fully (a streaming
// response measures time-to-last-line, same finish line as buffered).
func postSimulate(ctx context.Context, client *http.Client, base string, body []byte, stream bool) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if stream && resp.StatusCode == http.StatusOK {
		// Scan NDJSON lines so a mid-stream error line counts as a failure.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var line struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Type == "error" {
				return resp.StatusCode, fmt.Errorf("stream error line")
			}
		}
		return resp.StatusCode, sc.Err()
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// serveCounters is the /metrics subset the load report differences.
type serveCounters struct {
	runs, joined, hits int64
}

func fetchServeCounters(ctx context.Context, client *http.Client, base string) (serveCounters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return serveCounters{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return serveCounters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serveCounters{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	// The snapshot mixes integers with nested objects (gauges, histograms);
	// decode loosely and pick the integer counters out.
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return serveCounters{}, err
	}
	num := func(key string) int64 {
		v, ok := raw[key]
		if !ok {
			return 0
		}
		f, ok := v.(float64)
		if !ok {
			return 0
		}
		return int64(f)
	}
	return serveCounters{
		runs:   num("serve_coalesce_runs"),
		joined: num("serve_coalesce_joined"),
		hits:   num("serve_result_hits"),
	}, nil
}
