package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// maxBodyBytes bounds request bodies; every valid request is a small JSON
// document.
const maxBodyBytes = 1 << 20

// Shard-mode resilience: a coordinator re-dispatches a failed worker's
// layer slice over the survivors for up to shardRetries rounds after the
// first, pausing shardBackoff before the first retry round and doubling
// the pause each round.
const (
	shardRetries = 2
	shardBackoff = 50 * time.Millisecond
)

// Config tunes one Server.
type Config struct {
	// MaxInFlight bounds concurrent evaluation requests (each sweep
	// saturates the engine's worker pool, so admitting more than a handful
	// just queues them on the scheduler); below 1 means 1.
	MaxInFlight int
	// DefaultTimeout applies when a request names no timeout_ms;
	// MaxTimeout clamps whatever the client asks for. Zero values default
	// to 60s and 5m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Parallelism is the engine worker count of every request (0 =
	// GOMAXPROCS). A request cannot change it.
	Parallelism int
	// CacheBudget is the finished-result LRU's byte budget: 0 means
	// DefaultCacheBudget, negative disables retention (in-flight
	// coalescing still applies).
	CacheBudget int64
	// Workers, when non-empty, puts the server in coordinator mode: every
	// /v1/simulate fans its (config, layer) grid out over these base URLs
	// (each a plain tclserve exposing /v1/shard) instead of simulating
	// locally.
	Workers []string
	// Client performs the coordinator's worker calls; nil means a default
	// client with no overall timeout (the request context bounds each
	// call).
	Client *http.Client
	// HealthInterval is the period of the coordinator's background
	// /healthz probes of the worker fleet; 0 or negative disables the
	// probe loop (dispatch outcomes still feed the liveness state).
	HealthInterval time.Duration
	// Metrics receives the server's instruments; nil means
	// metrics.Default.
	Metrics *metrics.Registry
}

// Server is the evaluation service: the HTTP surface over the simulation
// engine, fronted by the in-flight limiter, the request fingerprint
// single-flight, and the finished-result LRU.
type Server struct {
	cfg    Config
	sem    chan struct{}
	cache  *ResultCache
	client *http.Client
	health *fleetHealth // nil outside coordinator mode

	requests            *metrics.Counter
	rejected            *metrics.Counter
	failures            *metrics.Counter
	timeouts            *metrics.Counter
	inflight            *metrics.Gauge
	latency             *metrics.Histogram
	shardRequests       *metrics.Counter
	shardDispatches     *metrics.Counter
	shardFailures       *metrics.Counter
	shardRetryRounds    *metrics.Counter
	shardFailoverLayers *metrics.Counter
}

// New builds a Server; zero Config fields get the documented defaults.
func New(cfg Config) *Server {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 1
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	s := &Server{
		cfg:                 cfg,
		sem:                 make(chan struct{}, cfg.MaxInFlight),
		cache:               NewResultCache(cfg.CacheBudget),
		client:              client,
		requests:            reg.Counter("serve_requests_total"),
		rejected:            reg.Counter("serve_requests_rejected_total"),
		failures:            reg.Counter("serve_requests_failed_total"),
		timeouts:            reg.Counter("serve_requests_timeout_total"),
		inflight:            reg.Gauge("serve_inflight_requests"),
		latency:             reg.Histogram("serve_request_latency"),
		shardRequests:       reg.Counter("serve_shard_requests_total"),
		shardDispatches:     reg.Counter("serve_shard_dispatch_total"),
		shardFailures:       reg.Counter("serve_shard_failures_total"),
		shardRetryRounds:    reg.Counter("serve_shard_retry_rounds_total"),
		shardFailoverLayers: reg.Counter("serve_shard_failover_layers_total"),
	}
	s.cache.RegisterMetrics(reg, "serve")
	if len(cfg.Workers) > 0 {
		s.health = newFleetHealth(cfg.Workers, client, cfg.HealthInterval, reg)
	}
	return s
}

// Cache exposes the finished-result cache (stats for tests and tools).
func (s *Server) Cache() *ResultCache { return s.cache }

// Close stops the coordinator's background health prober (a no-op outside
// coordinator mode). Idempotent.
func (s *Server) Close() {
	if s.health != nil {
		s.health.close()
	}
}

// Routes wires the service surface: the evaluation endpoints behind the
// in-flight limiter, plus the probes.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/simulate", s.limited(s.handleSimulate))
	mux.HandleFunc("POST /v1/schedule", s.limited(s.handleSchedule))
	mux.HandleFunc("POST /v1/shard", s.limited(s.handleShard))
	return mux
}

// limited applies the bounded in-flight semaphore (rejecting with 503 when
// full rather than queueing — a sweep is seconds of CPU, and a deep queue
// only converts overload into timeouts) and records request metrics.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.rejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "server at capacity: too many in-flight requests")
			return
		}
		defer func() { <-s.sem }()
		s.inflight.Inc()
		defer s.inflight.Dec()
		s.requests.Inc()
		start := time.Now()
		h(w, r)
		s.latency.Observe(time.Since(start))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleModels lists every registered workload, so a client can discover
// what ModelSpec.Model accepts without provoking a 400. The paper's seven
// networks are reported separately from the full registry set.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"models": nn.Names(),
		"paper":  nn.ModelNames,
	})
}

// publishActProfile accumulates one engine run's activation tensors into
// the sparsity_slice_* counters (sparsity.SliceProfile): per-bit-plane
// zero fractions, the calibration feed a BitWave/SWIS-style back-end
// consumes. Only cache-missing engine runs pay the pass; hits reuse the
// already-published run.
func (s *Server) publishActProfile(acts []*tensor.T) {
	reg := s.cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	var p sparsity.SliceProfile
	for _, t := range acts {
		p.AddTensor(t)
	}
	p.Publish(reg)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	w.Header().Set("Content-Type", "application/json")
	if err := reg.WriteJSON(w); err != nil {
		// Headers are gone; nothing left to do but note the failure.
		s.failures.Inc()
	}
}

// requestContext derives the per-request deadline: the client's timeout_ms
// when given, the server default otherwise, clamped to the server maximum.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// buildConfigs resolves the request's config specs (the default sweep when
// none are named), reporting the failing index — and, through
// ConfigSpec.Build, the registry's back-end list on unknown names.
func buildConfigs(specs []ConfigSpec) ([]arch.Config, error) {
	if len(specs) == 0 {
		specs = DefaultConfigs()
	}
	cfgs := make([]arch.Config, len(specs))
	for i, spec := range specs {
		var err error
		if cfgs[i], err = spec.Build(); err != nil {
			return nil, fmt.Errorf("configs[%d]: %v", i, err)
		}
	}
	return cfgs, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	m, zoo, actSeed, err := req.ModelSpec.Build()
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfgs, err := buildConfigs(req.Configs)
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	fp := Fingerprint(m, zoo, actSeed, cfgs)
	names := make([]string, len(cfgs))
	for i := range cfgs {
		names[i] = cfgs[i].Name
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	var st *streamWriter
	if req.Stream {
		st = newStreamWriter(w)
	}

	start := time.Now()
	// One engine invocation (or shard dispatch) per fingerprint: concurrent
	// identical requests coalesce onto the leader's run, and finished
	// sweeps serve follow-ups from the LRU without touching the engine.
	run := func() (_ *Sweep, err error) {
		defer recoverEngine(&err)
		var emit func(cfg, layer int, lp LayerPayload)
		if st != nil {
			// This request leads the run, so its stream gets the layer
			// lines live as each (config, layer) cell merges.
			st.header(m.Name, fp, SourceEngine, names)
			emit = st.layer
		}
		if len(s.cfg.Workers) > 0 {
			grid, wnames, err := s.dispatchShards(ctx, req, m, cfgs, emit)
			if err != nil {
				return nil, err
			}
			sw := &Sweep{Model: m.Name}
			for k, name := range wnames {
				sw.Configs = append(sw.Configs, payloadFromLayers(name, grid[k]))
			}
			return sw, nil
		}
		opts := sim.Options{Parallelism: s.cfg.Parallelism}
		if emit != nil {
			opts.OnLayerResult = func(cfg, layer int, lr sim.LayerResult) {
				emit(cfg, layer, layerPayload(lr))
			}
		}
		acts := m.GenerateActs(actSeed)
		s.publishActProfile(acts)
		results, err := sim.SimulateSweepContext(ctx, cfgs, m, acts, opts)
		if err != nil {
			return nil, err
		}
		sw := &Sweep{Model: m.Name}
		for _, res := range results {
			layers := make([]LayerPayload, len(res.Layers))
			for i, l := range res.Layers {
				layers[i] = layerPayload(l)
			}
			sw.Configs = append(sw.Configs, payloadFromLayers(res.Config, layers))
		}
		return sw, nil
	}
	sweep, src, err := s.cache.Do(ctx, fp, run)
	if err != nil {
		if st != nil && st.Started() {
			// The stream already committed a 200; the error becomes the
			// terminal line.
			s.countEngineError(err)
			st.error(err.Error())
			return
		}
		s.writeEngineError(w, err)
		return
	}
	resp := &SimulateResponse{
		Model:       sweep.Model,
		Fingerprint: fp,
		Source:      string(src),
		Configs:     sweep.Configs,
		ElapsedMs:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	if st != nil {
		if !st.Started() {
			// Coalesced or cached: the whole sweep is already in hand, so
			// the stream replays it in grid order.
			st.header(sweep.Model, fp, src, names)
			for k := range sweep.Configs {
				for i, l := range sweep.Configs[k].Layers {
					st.layer(k, i, l)
				}
			}
		}
		st.summary(resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShard is the worker side of shard mode: simulate an arbitrary
// layer slice of the (config, layer) grid and return the raw cells. No
// result caching here — the coordinator coalesces and caches at the
// whole-request level, and a worker's slice assignment varies with fleet
// size, so worker-level keys would fragment.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.shardRequests.Inc()
	var req ShardRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	m, _, actSeed, err := req.ModelSpec.Build()
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Configs) == 0 {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "missing configs (the coordinator names them explicitly)")
		return
	}
	cfgs, err := buildConfigs(req.Configs)
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Layers) == 0 {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "missing layers")
		return
	}
	for _, li := range req.Layers {
		if li < 0 || li >= len(m.Layers) {
			s.failures.Inc()
			writeError(w, http.StatusBadRequest, fmt.Sprintf("layer index %d out of range (model %q has %d layers)", li, m.Name, len(m.Layers)))
			return
		}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	var res []*sim.Result
	err = func() (err error) {
		defer recoverEngine(&err)
		// The slice is a model of its own. Activations are drawn for the
		// whole model, because GenerateActs draws layer by layer.
		acts := m.GenerateActs(actSeed)
		slice := *m
		slice.Layers = make([]*nn.Layer, len(req.Layers))
		sliceActs := make([]*tensor.T, len(req.Layers))
		for i, li := range req.Layers {
			slice.Layers[i], sliceActs[i] = m.Layers[li], acts[li]
		}
		res, err = sim.SimulateSweepContext(ctx, cfgs, &slice, sliceActs, sim.Options{Parallelism: s.cfg.Parallelism})
		return err
	}()
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	resp := ShardResponse{Model: m.Name, Cells: make([][]LayerPayload, len(res))}
	for k, cr := range res {
		resp.Configs = append(resp.Configs, cr.Config)
		resp.Cells[k] = make([]LayerPayload, len(cr.Layers))
		for i, l := range cr.Layers {
			resp.Cells[k][i] = layerPayload(l)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSchedule runs the offline software front-end alone: every filter
// group of the model scheduled under the pattern, reported as schedule
// columns vs dense steps per layer — the compaction a deployment would bake
// into its weight-scratchpad images.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	m, _, actSeed, err := req.ModelSpec.Build()
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Pattern == "" {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "missing pattern (want one of "+strings.Join(sched.KnownPatternNames(), ", ")+")")
		return
	}
	p, err := sched.ByName(req.Pattern)
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	alg, err := sched.AlgorithmByName(req.Algorithm)
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	// Group and schedule as /v1/simulate's front-end-only design does, so
	// a reply counts the schedules that design runs.
	cfg := arch.FrontEndOnly(p)
	cfg.Scheduler = alg
	lws, err := m.Lowered(cfg.Lanes, m.GenerateActs(actSeed))
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	resp := ScheduleResponse{Model: m.Name, Pattern: p.Name, Algorithm: alg.String()}
	for _, lw := range lws {
		lr := ScheduleLayerPayload{Name: lw.Name, Filters: lw.Filters}
		err := sim.LayerSchedules(cfg, lw, func(_ int, _ []sched.Filter, schedules []*sched.Schedule) error {
			for _, sc := range schedules {
				lr.Columns += sc.Len()
				lr.DenseCols += lw.Steps
			}
			// Scheduling one group is milliseconds; checking between
			// groups keeps a large model's sweep cancellable.
			return ctx.Err()
		})
		if err != nil {
			s.writeEngineError(w, err)
			return
		}
		if lr.Columns > 0 {
			lr.Compaction = float64(lr.DenseCols) / float64(lr.Columns)
		}
		resp.Layers = append(resp.Layers, lr)
		resp.Columns += lr.Columns
		resp.DenseCols += lr.DenseCols
	}
	if resp.Columns > 0 {
		resp.Compaction = float64(resp.DenseCols) / float64(resp.Columns)
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// enginePanic is a panic recovered under an engine call: a bug, such as a
// back-end plugin whose term streams run longer than 127 cycles, not a
// request error.
type enginePanic struct{ value any }

func (e *enginePanic) Error() string { return fmt.Sprintf("serve: engine panic: %v", e.value) }

// recoverEngine, deferred around an engine call, turns a panic into an
// *enginePanic in *err, so the client gets a 500 (or a terminal stream
// error line) and the connection survives.
func recoverEngine(err *error) {
	if v := recover(); v != nil {
		*err = &enginePanic{value: v}
	}
}

// countEngineError books the failure class without writing a response
// (the streaming path already committed its status).
func (s *Server) countEngineError(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Inc()
	} else {
		s.failures.Inc()
	}
}

// writeEngineError maps a failed engine run to the response the client can
// act on: 504 for an expired deadline, 408 for a request the client itself
// abandoned, 502 for a shard worker failure, 500 for anything else (an
// engine panic included).
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	var se *shardError
	var fm *fleetMismatchError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "simulation exceeded the request deadline")
	case errors.Is(err, context.Canceled):
		// The client disconnected; the status code is for the log only.
		s.failures.Inc()
		writeError(w, http.StatusRequestTimeout, "request cancelled")
	case errors.As(err, &se):
		s.failures.Inc()
		writeError(w, http.StatusBadGateway, se.Error())
	case errors.As(err, &fm):
		s.failures.Inc()
		writeError(w, http.StatusBadGateway, fm.Error())
	default:
		s.failures.Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// decodeRequest parses the JSON body, answering 400 (application/json,
// like every error here) on garbage and booking the failure.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers every error as a JSON object with the JSON content
// type — no error path falls back to text/plain.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
