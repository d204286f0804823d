package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// workload is one benchmark workload. setup prepares everything the timed
// window needs and returns the digest of its reference outputs; op runs one
// pass or request, with sp recording spans when the run is traced.
type workload interface {
	setup(ctx context.Context) (*digest, error)
	clients() int
	op(ctx context.Context, id opID, sp spanRef) opResult
	counters() counters
	// finish runs output checks that need the whole window, returning one
	// error per failed op.
	finish(ctx context.Context) []error
	close()
}

// opID identifies one op: the run phase (window or traced), the client that
// sent it, and that client's op count so far.
type opID struct{ phase, client, k int }

const (
	phaseWindow = iota
	phaseTraced
)

// opResult is one op's outcome. dur is set by ops that time only part of
// themselves (a request's round trip); otherwise the whole op is timed.
type opResult struct {
	dur   time.Duration
	err   error
	serve *reply
}

// counters are the program's cache counters, read before and after the
// untraced window.
type counters struct {
	sched sched.CacheStats
	plane sim.PlaneCacheStats
}

// profile sizes a workload's inputs. The standard profiles are the
// benchmark; tests substitute one small model.
type profile struct {
	models                     []string
	channelScale, spatialScale float64
	trials                     int // Figure 11 filters per point
}

// zoo is the profile's zoo configuration. The weights keep the zoo's own
// seed: the run seed varies activations only, because every engine request
// of a serving run shares one draw of pruned weights, and the draw alone
// moved that workload's p95 by about 10%.
func (p profile) zoo() nn.ZooConfig {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = p.channelScale, p.spatialScale
	return z
}

// workloadDef is one entry of the workload catalogue.
type workloadDef struct {
	name   string
	op     string // what one op is called in traces: "pass" or "request"
	traced int    // ops in a traced run
	prof   func() profile
	new    func(cfg runConfig) workload
}

var workloads = []workloadDef{
	{name: "zoo-warm", op: "pass", traced: tracedPasses,
		prof: func() profile {
			z := nn.DefaultZoo()
			return profile{models: nn.Names(), channelScale: z.ChannelScale, spatialScale: z.SpatialScale}
		},
		new: func(c runConfig) workload { return &zooWarm{prof: c.prof, seed: c.seed} }},
	{name: "design-cold", op: "pass", traced: tracedPasses,
		prof: func() profile {
			return profile{models: []string{"AlexNet-ES", "MobileNet", "Bi-LSTM", "BERT-Attn"},
				channelScale: 0.25, spatialScale: 0.25, trials: 25}
		},
		new: func(c runConfig) workload { return &designCold{prof: c.prof, seed: c.seed} }},
	{name: "serve-hot", op: "request", traced: tracedRequests, prof: hotSet,
		new: func(c runConfig) workload { return &serveLoad{prof: c.prof, seed: c.seed, wrap: c.wrap} }},
	{name: "serve-mixed", op: "request", traced: tracedRequests, prof: hotSet,
		new: func(c runConfig) workload { return &serveLoad{prof: c.prof, seed: c.seed, wrap: c.wrap, mixed: true} }},
}

// hotSet is the serving workloads' hot set: CNNs with plain, grouped and
// depthwise convolutions, and two attention blocks. A hit's latency is
// mostly its model's build time, so the latency sample is a mix of one mode
// per model. With an odd number of models of distinct build times the
// median falls inside a mode, not on the edge between two. The first model
// is also the one serve-mixed sends with fresh activation seeds.
func hotSet() profile {
	z := nn.DefaultZoo()
	return profile{models: []string{"AlexNet-ES", "GoogLeNet-SS", "MobileNet", "BERT-Attn", "ViT-Attn"},
		channelScale: z.ChannelScale, spatialScale: z.SpatialScale}
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one run of one workload.
type runConfig struct {
	def    workloadDef
	prof   profile
	seed   int64
	window time.Duration // untraced timed window; ignored when windowOps > 0
	// windowOps, when positive, replaces the window with this many ops.
	windowOps int
	setups    int // setup_s is the median over this many independent set-ups
	tracedOps int // ops in the traced run; 0 skips it
	expect    *digest
	wrap      func(http.Handler) http.Handler
}

// result is everything one run measured.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Host      hostFacts              `json:"host"`
	Revision  string                 `json:"revision"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	WindowOps int                    `json:"window_ops"`
	Latencies []float64              `json:"window_latencies_ms"`
	TracedOps int                    `json:"traced_ops,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Digest    *digest                `json:"digest"`

	spans []span
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostFacts are what must match before two result sets are compared.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostFacts {
	return hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// revision is the VCS revision the binary was built from, "+dirty" when
// the tree had changes, or "unknown" outside a checkout.
func revision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runWorkload sets the workload up (several times, keeping the last), runs
// the untraced window, checks outputs, and then runs the traced ops.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.def.name, Seed: cfg.seed, Host: host(), Revision: revision()}
	var w workload
	setupSecs := make([]float64, 0, cfg.setups)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if w != nil {
			w.close()
		}
		w = cfg.def.new(cfg)
		t0 := time.Now()
		d, err := w.setup(ctx)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.def.name, err)
		}
		res.Digest = d
	}
	defer w.close()
	res.Attempted = 1 // the set-up's reference run
	if cfg.expect != nil {
		if d := res.Digest.diff(cfg.expect); d != "" {
			res.fail(fmt.Sprintf("reference outputs differ from the committed digest: %s", d))
		}
	}

	c0, rt0 := w.counters(), sampleRuntime()
	win := runOps(ctx, w, cfg.def.op, phaseWindow, time.Now().Add(cfg.window), cfg.windowOps, nil)
	c1, rt1 := w.counters(), sampleRuntime()
	res.WindowOps = len(win.ops)
	res.tally(win)
	for _, err := range w.finish(ctx) {
		res.fail(err.Error())
	}
	// The second collection empties the sync.Pool victim caches the first
	// one leaves, so only what the program keeps remains.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	lat := win.latencies()
	res.Latencies = win.inOrder()
	res.EndToEnd = metricSet(endToEnd, map[string]float64{
		"setup_s":          median(setupSecs),
		"latency_p50_ms":   percentile(lat, 0.50),
		"latency_p95_ms":   percentile(lat, 0.95),
		"throughput_ops_s": float64(len(lat)) / win.wall.Seconds(),
		"live_heap_mb":     float64(ms.HeapAlloc) / (1 << 20),
	})
	if cfg.tracedOps <= 0 {
		res.Correct = res.Failed == 0
		return res, nil
	}

	tr := newTracer()
	traced := runOps(ctx, w, cfg.def.op, phaseTraced, time.Time{}, cfg.tracedOps, tr)
	res.TracedOps = len(traced.ops)
	res.tally(traced)
	res.spans = tr.spans
	layer := layerValues(win, c1.minus(c0), rt0, rt1, tr, cfg.def.op)
	res.PerLayer = metricSet(perLayer, layer)
	res.Correct = res.Failed == 0
	return res, nil
}

func (r *result) fail(problem string) {
	r.Failed++
	r.Problems = append(r.Problems, problem)
}

// tally counts a phase's ops and keeps the first few failures' reasons.
func (r *result) tally(s opStats) {
	r.Attempted += len(s.ops)
	for _, o := range s.ops {
		if o.err == nil {
			continue
		}
		r.Failed++
		if len(r.Problems) < 10 {
			r.Problems = append(r.Problems, o.err.Error())
		}
	}
}

// opStats is one phase's ops, in completion order, and its wall time from
// the phase start to the end of its last op.
type opStats struct {
	ops  []opResult
	wall time.Duration
}

// latencies returns the successful ops' durations in ms, sorted.
func (s opStats) latencies() []float64 {
	var out []float64
	for _, o := range s.ops {
		if o.err == nil {
			out = append(out, float64(o.dur)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// inOrder returns every op's duration in ms, in completion order.
func (s opStats) inOrder() []float64 {
	out := make([]float64, len(s.ops))
	for i, o := range s.ops {
		out[i] = float64(o.dur) / float64(time.Millisecond)
	}
	return out
}

// runOps runs ops on w.clients() closed-loop clients, until the deadline
// passes or, when n > 0, until n ops have started. A non-nil tracer gets a
// root span per op.
func runOps(ctx context.Context, w workload, opName string, phase int, until time.Time, n int, tr *tracer) opStats {
	var (
		mu   sync.Mutex
		st   opStats
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				seq := int(next.Add(1)) - 1
				if (n > 0 && seq >= n) || (n <= 0 && !time.Now().Before(until)) {
					return
				}
				root := tr.root(opName, seq, c)
				t0 := time.Now()
				r := w.op(ctx, opID{phase: phase, client: c, k: k}, root)
				if r.dur == 0 {
					r.dur = time.Since(t0)
				}
				root.end()
				mu.Lock()
				st.ops = append(st.ops, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

func (c counters) minus(o counters) counters {
	return counters{
		sched: sched.CacheStats{Hits: c.sched.Hits - o.sched.Hits, Misses: c.sched.Misses - o.sched.Misses},
		plane: sim.PlaneCacheStats{Hits: c.plane.Hits - o.plane.Hits, Misses: c.plane.Misses - o.plane.Misses,
			Evictions: c.plane.Evictions - o.plane.Evictions, Bytes: c.plane.Bytes},
	}
}

// runtimeSample is the process's CPU use and GC share at one instant.
type runtimeSample struct {
	wall            time.Time
	cpu             time.Duration
	gcCPU, totalCPU float64
	maxRSSKiB       int64
}

var cpuMetrics = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := runtimeSample{wall: time.Now(), maxRSSKiB: ru.Maxrss,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	samples := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(samples)
	s.gcCPU, s.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	return s
}

// layerValues computes every per-layer metric: times from the traced run's
// spans, counters from the untraced window.
func layerValues(win opStats, cnt counters, rt0, rt1 runtimeSample, tr *tracer, opName string) map[string]float64 {
	v := map[string]float64{}
	ops := float64(countRoots(tr.spans))
	self := selfTimes(tr.spans)
	spanMs := map[string]float64{}
	allocs := map[string]int64{}
	var overheads, coverage []float64
	untraced := median(win.latencies())
	replay := map[int]time.Duration{} // per root: time in replay spans
	root := rootsOf(tr.spans)
	for i, s := range tr.spans {
		d := s.End - s.Start
		spanMs[s.Name] += float64(d) / float64(time.Millisecond)
		if s.Allocs > 0 {
			allocs[s.Name] += s.Allocs
		}
		if s.Replay && s.Parent >= 0 && tr.spans[s.Parent].Parent < 0 {
			replay[root[i]] += d
		}
	}
	for i, s := range tr.spans {
		if s.Parent >= 0 || s.Name != opName {
			continue
		}
		d := s.End - s.Start
		coverage = append(coverage, 1-float64(self[i])/float64(d))
		overheads = append(overheads, float64(d-replay[i])/float64(time.Millisecond)/untraced)
	}
	perOp := func(name string) float64 { return spanMs[name] / ops }
	for _, name := range []string{"nn.build", "nn.acts", "nn.lower", "sched.schedule", "sim.engine", "serve.build"} {
		v[name+"_ms"] = perOp(name)
	}
	v["experiments.fig11a_ms"] = perOp("experiments.fig11a")
	v["experiments.fig11b_ms"] = perOp("experiments.fig11b")
	v["experiments.allocs_per_pass"] = float64(allocs["experiments.fig11a"]+allocs["experiments.fig11b"]) / ops
	v["sim.allocs_per_pass"] = float64(allocs["sim.engine"]) / ops
	for _, kind := range []string{"conv", "gconv", "dwconv", "fc"} {
		ms := spanMs["sim."+kind]
		v["sim."+kind+"_ms"] = ms / ops
		if ms > 0 {
			v["sim."+kind+"_mmacs_per_s"] = float64(tr.counts["macs."+kind]) / (ms / 1e3) / 1e6
		}
	}
	v["trace.overhead_ratio"] = median(overheads)
	v["trace.coverage_ratio"] = median(coverage)

	winOps := float64(len(win.ops))
	groups := cnt.sched.Hits + cnt.sched.Misses
	v["sched.groups"] = float64(groups) / winOps
	v["sched.hits"] = float64(cnt.sched.Hits) / winOps
	v["sched.misses"] = float64(cnt.sched.Misses) / winOps
	v["sched.hit_ratio"] = ratio(cnt.sched.Hits, groups)
	v["sim.plane_hits"] = float64(cnt.plane.Hits) / winOps
	v["sim.plane_misses"] = float64(cnt.plane.Misses) / winOps
	v["sim.plane_evictions"] = float64(cnt.plane.Evictions) / winOps
	v["sim.plane_hit_ratio"] = ratio(cnt.plane.Hits, cnt.plane.Hits+cnt.plane.Misses)
	v["sim.plane_mb"] = float64(cnt.plane.Bytes) / (1 << 20)

	serveValues(v, win)

	wall := rt1.wall.Sub(rt0.wall)
	v["runtime.cpu_util"] = (rt1.cpu - rt0.cpu).Seconds() / (wall.Seconds() * cores)
	if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
		v["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / d
	}
	v["runtime.max_rss_mb"] = float64(sampleRuntime().maxRSSKiB) / 1024
	return v
}

// serveValues adds the serving metrics, read from the window's replies.
func serveValues(v map[string]float64, win opStats) {
	var edge, hit, engine []float64
	var sources = map[string]int64{}
	var ok, rejected, bytes int64
	for _, o := range win.ops {
		rep := o.serve
		if rep == nil {
			continue
		}
		bytes += int64(rep.bytes)
		if rep.status == http.StatusServiceUnavailable {
			rejected++
		}
		if o.err != nil {
			continue
		}
		ok++
		sources[rep.source]++
		edge = append(edge, float64(o.dur)/float64(time.Millisecond)-rep.elapsedMs)
		switch rep.source {
		case "cache":
			hit = append(hit, rep.elapsedMs)
		case "engine":
			engine = append(engine, rep.elapsedMs)
		}
	}
	for _, s := range [][]float64{edge, hit, engine} {
		sort.Float64s(s)
	}
	v["serve.edge_ms"] = median(edge)
	v["serve.hit_elapsed_ms"] = median(hit)
	v["serve.engine_elapsed_ms"] = median(engine)
	v["serve.cache_ratio"] = ratio(sources["cache"], ok)
	v["serve.coalesced_ratio"] = ratio(sources["coalesced"], ok)
	v["serve.engine_ratio"] = ratio(sources["engine"], ok)
	v["serve.rejected"] = float64(rejected)
	if n := len(win.ops); n > 0 && bytes > 0 {
		v["serve.response_kb"] = float64(bytes) / float64(n) / 1024
	}
}

// rootsOf maps every span to the root span of its op.
func rootsOf(spans []span) []int {
	root := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent] // parents open before their children
		}
	}
	return root
}

func countRoots(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Parent < 0 {
			n++
		}
	}
	return max(n, 1)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median of xs in any order; 0 for an empty slice.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank p-quantile of sorted values; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// metricSet attaches units from the catalogue; metrics without a value
// are reported as 0.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
