package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/backend/dstripes"
	"bittactical/internal/metrics"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

func testServer(t *testing.T, maxInFlight int) *Server {
	t.Helper()
	return New(Config{MaxInFlight: maxInFlight, DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute, Parallelism: 2})
}

// smallBody keeps handler tests fast: a tiny zoo instantiation of the
// smallest network.
func smallBody(extra string) string {
	body := `{"model":"AlexNet-ES","channel_scale":0.1,"spatial_scale":0.25`
	if extra != "" {
		body += "," + extra
	}
	return body + "}"
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestHealthz(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := getPath(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	var resp map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp["status"] != "ok" {
		t.Fatalf("/healthz body = %q (err %v), want status ok", rec.Body.String(), err)
	}
}

func TestSimulateAndMetrics(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := postJSON(t, h, "/v1/simulate",
		smallBody(`"configs":[{"backend":"dense"},{"backend":"tcle","pattern":"T8<2,5>"}]`))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Configs) != 2 {
		t.Fatalf("got %d configs, want 2", len(resp.Configs))
	}
	if resp.Source != string(SourceEngine) {
		t.Errorf("first request source = %q, want engine", resp.Source)
	}
	if len(resp.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", resp.Fingerprint)
	}
	dense, tcle := resp.Configs[0], resp.Configs[1]
	if dense.Cycles == 0 || tcle.Cycles == 0 || len(tcle.Layers) == 0 {
		t.Fatalf("empty simulation result: %+v", resp)
	}
	if dense.Cycles != dense.DenseCycles {
		t.Errorf("dense baseline cycles %d != its own dense reference %d", dense.Cycles, dense.DenseCycles)
	}
	if tcle.Speedup <= 1 {
		t.Errorf("TCLe speedup = %.2f, want > 1 on a sparse model", tcle.Speedup)
	}

	// The acceptance gate: after a successful request, /metrics reports
	// nonzero cache and pool counters.
	mrec := getPath(t, h, "/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", mrec.Code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	mustNonzero := func(name string) {
		t.Helper()
		var v int64
		if err := json.Unmarshal(snap[name], &v); err != nil {
			t.Fatalf("metric %s = %s: %v", name, snap[name], err)
		}
		if v == 0 {
			t.Errorf("metric %s is zero after a successful simulate", name)
		}
	}
	mustNonzero("sched_cache_misses")
	mustNonzero("sim_pool_items_total")
	mustNonzero("serve_requests_total")
	var lat struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(snap["sim_layer_latency"], &lat); err != nil || lat.Count == 0 {
		t.Errorf("sim_layer_latency count = %d (err %v), want nonzero", lat.Count, err)
	}
}

// TestSimulatePlaneCacheSharing pins the sweep-sharing contract: a
// two-config request whose configs share a (back-end, width) builds each
// row-invariant layer's activation cost plane once and reuses it for the
// second config — at least one hit per row-invariant layer — and /metrics
// exposes the plane cache counters.
func TestSimulatePlaneCacheSharing(t *testing.T) {
	sim.SharedPlanes.Reset()
	defer sim.SharedPlanes.Reset()
	h := testServer(t, 2).Routes()
	// Three configs, two distinct back-ends at the same width: the two TCLe
	// configs share each layer's plane; the TCLp config — and any other
	// back-end, since planes are keyed on Backend.Name() — must not collide
	// with TCLe's planes and builds its own.
	rec := postJSON(t, h, "/v1/simulate",
		smallBody(`"configs":[{"backend":"tcle","pattern":"T8<2,5>"},{"backend":"tcle","pattern":"L8<1,6>"},{"backend":"tclp","pattern":"T8<2,5>"}]`))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", rec.Code, rec.Body.String())
	}

	// The request's model, rebuilt to count plane units: one per act group
	// per layer (AlexNet-ES has grouped convs, which build one plane per
	// filter group instead of one per layer).
	zoo := nn.DefaultZoo()
	zoo.ChannelScale, zoo.SpatialScale = 0.1, 0.25
	m, err := nn.BuildModel("AlexNet-ES", zoo)
	if err != nil {
		t.Fatal(err)
	}
	lws, err := m.Lowered(16, m.GenerateActs(7))
	if err != nil {
		t.Fatal(err)
	}
	planeUnits, groupUnits := 0, 0
	for _, lw := range lws {
		planeUnits += lw.ActGroups()
		if lw.ActGroups() > 1 {
			groupUnits += lw.ActGroups()
		}
	}
	if planeUnits == len(lws) {
		t.Fatal("model has no grouped layers; test is vacuous")
	}
	st := sim.SharedPlanes.Stats()
	if st.Misses != int64(2*planeUnits) {
		t.Errorf("plane cache misses = %d, want %d (one build per act group per back-end)", st.Misses, 2*planeUnits)
	}
	if st.Hits < int64(planeUnits) {
		t.Errorf("plane cache hits = %d, want >= %d (second TCLe config reuses every plane)", st.Hits, planeUnits)
	}
	if st.GroupBuilds != int64(2*groupUnits) {
		t.Errorf("grouped plane builds = %d, want %d (grouped convs take the plane path)", st.GroupBuilds, 2*groupUnits)
	}
	if st.GroupHits < int64(groupUnits) {
		t.Errorf("grouped plane hits = %d, want >= %d", st.GroupHits, groupUnits)
	}

	mrec := getPath(t, h, "/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", mrec.Code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	for name, want := range map[string]int64{
		"sim_plane_hits":            st.Hits,
		"sim_plane_misses":          st.Misses,
		"sim_plane_entries":         int64(st.Entries),
		"sim_plane_bytes":           st.Bytes,
		"sim_plane_group_builds":    st.GroupBuilds,
		"sim_plane_group_hits":      st.GroupHits,
		"sim_plane_group_evictions": st.GroupEvictions,
	} {
		var v int64
		if err := json.Unmarshal(snap[name], &v); err != nil {
			t.Fatalf("metric %s = %s: %v", name, snap[name], err)
		}
		if v != want {
			t.Errorf("metric %s = %d, want %d", name, v, want)
		}
	}
}

func TestSimulateDefaultsConfigs(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := postJSON(t, h, "/v1/simulate", smallBody(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Configs) != len(DefaultConfigs()) {
		t.Fatalf("default sweep ran %d configs, want %d", len(resp.Configs), len(DefaultConfigs()))
	}
}

// TestSimulateDeadline pins the acceptance criterion: a request with a
// too-short deadline fails with a timeout status, promptly, without leaking
// engine goroutines.
func TestSimulateDeadline(t *testing.T) {
	h := testServer(t, 2).Routes()
	before := runtime.NumGoroutine()
	start := time.Now()
	rec := postJSON(t, h, "/v1/simulate",
		`{"model":"AlexNet-ES","channel_scale":0.3,"spatial_scale":0.4,"timeout_ms":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("short-deadline simulate = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("timeout body lacks a deadline message: %s", rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timed-out request took %v, want prompt return", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak after timeout: %d before, %d after", before, after)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	h := testServer(t, 2).Routes()
	cases := []struct {
		name, body string
	}{
		{"unknown model", `{"model":"NotANet"}`},
		{"missing model", `{}`},
		{"unknown backend", smallBody(`"configs":[{"backend":"warp"}]`)},
		{"unknown pattern", smallBody(`"configs":[{"backend":"tcle","pattern":"Z9<9,9>"}]`)},
		{"front-end without pattern", smallBody(`"configs":[{"backend":"front-end"}]`)},
		{"bad width", smallBody(`"configs":[{"backend":"tcle","pattern":"T8<2,5>","width":12}]`)},
		{"unknown field", `{"model":"AlexNet-ES","wat":1}`},
		{"malformed json", `{"model":`},
	}
	for _, c := range cases {
		rec := postJSON(t, h, "/v1/simulate", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", c.name, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", c.name, ct)
		}
	}
}

// TestSimulateHugeParallelism pins that a request cannot choose the
// engine's worker count: the server's Config.Parallelism is the only
// setting, and a body naming parallelism is an unknown field on both engine
// endpoints.
func TestSimulateHugeParallelism(t *testing.T) {
	h := testServer(t, 2).Routes()
	cfgs := `"parallelism":1000000000,"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", smallBody(cfgs)},
		{"/v1/shard", smallBody(cfgs + `,"layers":[0,1]`)},
	} {
		rec := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "parallelism") {
			t.Errorf("%s naming parallelism = %d %s, want 400 naming the field", tc.path, rec.Code, rec.Body.String())
		}
	}
}

// TestErrorResponsesAreJSON sweeps every server-written error path —
// decode failures, bad model/config, saturation, timeout — and requires
// the JSON content type and a JSON object body with an "error" key on each.
func TestErrorResponsesAreJSON(t *testing.T) {
	s := testServer(t, 1)
	h := s.Routes()
	check := func(name string, rec *httptest.ResponseRecorder, wantStatus int) {
		t.Helper()
		if rec.Code != wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", name, rec.Code, wantStatus, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", name, ct)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: body %q is not an {error: …} object (err %v)", name, rec.Body.String(), err)
		}
	}
	check("malformed json", postJSON(t, h, "/v1/simulate", `{`), http.StatusBadRequest)
	check("unknown model", postJSON(t, h, "/v1/simulate", `{"model":"NotANet"}`), http.StatusBadRequest)
	check("unknown backend in sweep", postJSON(t, h, "/v1/simulate",
		smallBody(`"configs":[{"backend":"dense"},{"backend":"warp"}]`)), http.StatusBadRequest)
	check("timeout", postJSON(t, h, "/v1/simulate",
		`{"model":"AlexNet-ES","channel_scale":0.3,"spatial_scale":0.4,"timeout_ms":1}`), http.StatusGatewayTimeout)
	check("schedule missing pattern", postJSON(t, h, "/v1/schedule", smallBody("")), http.StatusBadRequest)
	check("shard missing layers", postJSON(t, h, "/v1/shard",
		smallBody(`"configs":[{"backend":"dense"}]`)), http.StatusBadRequest)

	s.sem <- struct{}{}
	check("saturated", postJSON(t, h, "/v1/simulate", smallBody("")), http.StatusServiceUnavailable)
	<-s.sem
}

// TestSimulateUnknownBackendListsRegistry pins the error contract: an
// unknown back-end name is rejected with HTTP 400 and the body names every
// registered back-end, so API users can discover what the registry holds.
// The sweep path (bad name among good ones) must carry the same list.
func TestSimulateUnknownBackendListsRegistry(t *testing.T) {
	h := testServer(t, 2).Routes()
	for name, body := range map[string]string{
		"single": smallBody(`"configs":[{"backend":"warp"}]`),
		"sweep":  smallBody(`"configs":[{"backend":"dense"},{"backend":"tcle","pattern":"T8<2,5>"},{"backend":"warp"}]`),
	} {
		rec := postJSON(t, h, "/v1/simulate", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: unknown backend = %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", name, ct)
		}
		got := rec.Body.String()
		if !strings.Contains(got, "warp") {
			t.Errorf("%s: 400 body does not echo the bad name: %s", name, got)
		}
		for _, be := range backend.Names() {
			if !strings.Contains(got, be) {
				t.Errorf("%s: 400 body does not list registered back-end %q: %s", name, be, got)
			}
		}
	}
}

// TestSimulatePluginBackend is the service-level seam proof: the
// sign-magnitude plugin back-end, registered by a blank import and never
// mentioned in the handler code, runs end-to-end over /v1/simulate.
func TestSimulatePluginBackend(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := postJSON(t, h, "/v1/simulate",
		smallBody(`"configs":[{"backend":"dstripes-sm","pattern":"T8<2,5>"},{"backend":"tclp","pattern":"T8<2,5>"}]`))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Configs) != 2 {
		t.Fatalf("got %d configs, want 2", len(resp.Configs))
	}
	sm, tclp := resp.Configs[0], resp.Configs[1]
	if !strings.Contains(sm.Name, dstripes.Name) {
		t.Errorf("config name %q does not carry the plugin back-end name", sm.Name)
	}
	if sm.Cycles == 0 || sm.Speedup <= 0 || len(sm.Layers) == 0 {
		t.Fatalf("empty plugin simulation result: %+v", sm)
	}
	// Sign-magnitude streams from bit 0 without trimming, so it can never
	// finish the model faster than TCLp's dynamic-precision window.
	if sm.Cycles < tclp.Cycles {
		t.Errorf("dstripes-sm cycles %d < TCLp cycles %d; cost ordering violated", sm.Cycles, tclp.Cycles)
	}
}

func TestSimulateRejectsWhenSaturated(t *testing.T) {
	s := testServer(t, 1)
	h := s.Routes()
	// Occupy the single in-flight slot, then observe the 503.
	s.sem <- struct{}{}
	rec := postJSON(t, h, "/v1/simulate", smallBody(""))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated simulate = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("503 Content-Type = %q, want application/json", ct)
	}
	<-s.sem
	// With the slot free the same request succeeds.
	if rec := postJSON(t, h, "/v1/simulate", smallBody(`"configs":[{"backend":"dense"}]`)); rec.Code != http.StatusOK {
		t.Fatalf("post-drain simulate = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestScheduleEndpoint(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := postJSON(t, h, "/v1/schedule", smallBody(`"pattern":"T8<2,5>"`))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/schedule = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Layers) == 0 || resp.Columns == 0 || resp.DenseCols == 0 {
		t.Fatalf("empty schedule response: %+v", resp)
	}
	if resp.Compaction <= 1 {
		t.Errorf("compaction = %.2f, want > 1 on a pruned model", resp.Compaction)
	}
	if resp.Algorithm != "algorithm1" {
		t.Errorf("default algorithm = %q, want algorithm1", resp.Algorithm)
	}

	if rec := postJSON(t, h, "/v1/schedule", smallBody("")); rec.Code != http.StatusBadRequest {
		t.Errorf("missing pattern: status = %d, want 400", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/schedule", smallBody(`"pattern":"T8<2,5>","algorithm":"psychic"`)); rec.Code != http.StatusBadRequest {
		t.Errorf("bad algorithm: status = %d, want 400", rec.Code)
	}
}

// TestScheduleMatchesEngine pins that /v1/schedule groups filters exactly
// as the engine does: per layer, its columns and dense columns equal the
// front-end census of a FrontEndOnly simulation under the same pattern
// and scheduler.
func TestScheduleMatchesEngine(t *testing.T) {
	h := testServer(t, 2).Routes()
	spec := ModelSpec{Model: "AlexNet-ES", ChannelScale: 0.1, SpatialScale: 0.25}
	m, _, actSeed, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	acts := m.GenerateActs(actSeed)
	for _, tc := range []struct{ pattern, alg string }{{"T8<2,5>", "algorithm1"}, {"L8<1,6>", "greedy"}} {
		p, err := sched.ByName(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		cfg := arch.FrontEndOnly(p)
		if cfg.Scheduler, err = sched.AlgorithmByName(tc.alg); err != nil {
			t.Fatal(err)
		}
		rs, err := sim.SimulateSweepContext(context.Background(), []arch.Config{cfg}, m, acts, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, h, "/v1/schedule", smallBody(`"pattern":"`+tc.pattern+`","algorithm":"`+tc.alg+`"`))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/%s: /v1/schedule = %d: %s", tc.pattern, tc.alg, rec.Code, rec.Body.String())
		}
		var resp ScheduleResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		layers := rs[0].Layers
		if len(resp.Layers) != len(layers) {
			t.Fatalf("%s/%s: %d layers in the reply, %d in the engine", tc.pattern, tc.alg, len(resp.Layers), len(layers))
		}
		for i, lr := range resp.Layers {
			fe := layers[i].FrontEnd
			if lr.Columns != fe.Columns || lr.DenseCols != fe.DenseSteps {
				t.Errorf("%s/%s %s: reply columns %d, dense %d; engine %d, %d",
					tc.pattern, tc.alg, lr.Name, lr.Columns, lr.DenseCols, fe.Columns, fe.DenseSteps)
			}
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testServer(t, 2).Routes()
	if rec := getPath(t, h, "/v1/simulate"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate = %d, want 405", rec.Code)
	}
	rec := postJSON(t, h, "/healthz", "{}")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", rec.Code)
	}
}

// TestBodyTooLarge guards the request-size bound.
func TestBodyTooLarge(t *testing.T) {
	h := testServer(t, 2).Routes()
	big := `{"model":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	rec := postJSON(t, h, "/v1/simulate", big)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized body = %d, want 400", rec.Code)
	}
}

// poolItems reads the engine's lifetime work-item counter — the ground
// truth for "how many engine simulations actually ran".
func poolItems() int64 {
	return metrics.Default.Counter("sim_pool_items_total").Value()
}

// TestSimulateCoalescesDuplicates is the acceptance proof for request
// coalescing: N identical concurrent POSTs execute exactly one engine
// simulation. The engine's work-item count for this request shape is
// deterministic, so the counter delta across the concurrent batch must
// equal the delta of a single solo run — not N times it.
func TestSimulateCoalescesDuplicates(t *testing.T) {
	body := smallBody(`"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`)

	// Learn the per-run item count from a solo request on a throwaway server.
	solo := testServer(t, 8).Routes()
	before := poolItems()
	if rec := postJSON(t, solo, "/v1/simulate", body); rec.Code != http.StatusOK {
		t.Fatalf("solo simulate = %d: %s", rec.Code, rec.Body.String())
	}
	perRun := poolItems() - before
	if perRun == 0 {
		t.Fatal("solo run produced no pool items; counter proof is vacuous")
	}

	const n = 8
	s := testServer(t, n)
	h := s.Routes()
	before = poolItems()
	type result struct {
		code   int
		source string
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			rec := postJSON(t, h, "/v1/simulate", body)
			var resp SimulateResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &resp)
			results <- result{code: rec.Code, source: resp.Source}
		}()
	}
	engines := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("concurrent simulate = %d", r.code)
		}
		if r.source == string(SourceEngine) {
			engines++
		}
	}
	if delta := poolItems() - before; delta != perRun {
		t.Errorf("engine ran %d pool items for %d identical requests, want exactly one run's %d", delta, n, perRun)
	}
	if engines != 1 {
		t.Errorf("%d requests report source=engine, want exactly 1", engines)
	}
	st := s.Cache().Stats()
	if st.Runs != 1 {
		t.Errorf("cache led %d engine runs, want 1", st.Runs)
	}
	if st.Joined+st.Hits != n-1 {
		t.Errorf("joined %d + cache hits %d != %d followers", st.Joined, st.Hits, n-1)
	}
}

// TestSimulateResultCacheServesRepeats: a repeat of a finished request is
// served from the LRU — source "cache", zero new engine work — and spelling
// out the defaults changes nothing (the fingerprint canonicalizes first).
func TestSimulateResultCacheServesRepeats(t *testing.T) {
	s := testServer(t, 2)
	h := s.Routes()
	body := smallBody(`"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`)
	rec := postJSON(t, h, "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("first simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var first SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}

	before := poolItems()
	// Same request with defaults spelled out: seed and act_seed defaults,
	// explicit width 16, mixed-case backend name.
	explicit := `{"model":"AlexNet-ES","channel_scale":0.1,"spatial_scale":0.25,"seed":1,"act_seed":7,` +
		`"configs":[{"backend":"TCLe","pattern":"T8<2,5>","width":16}]}`
	rec = postJSON(t, h, "/v1/simulate", explicit)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var second SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Source != string(SourceCache) {
		t.Errorf("repeat source = %q, want cache", second.Source)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("explicit-defaults fingerprint %s != terse fingerprint %s", second.Fingerprint, first.Fingerprint)
	}
	if delta := poolItems() - before; delta != 0 {
		t.Errorf("cache hit still ran %d engine items, want 0", delta)
	}
	aj, _ := json.Marshal(first.Configs)
	bj, _ := json.Marshal(second.Configs)
	if string(aj) != string(bj) {
		t.Errorf("cached results differ from original:\n%s\nvs\n%s", aj, bj)
	}
	// A different act seed is a different fingerprint: no false sharing.
	rec = postJSON(t, h, "/v1/simulate", smallBody(`"act_seed":99,"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`))
	if rec.Code != http.StatusOK {
		t.Fatalf("distinct-seed simulate = %d", rec.Code)
	}
	var third SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &third); err != nil {
		t.Fatal(err)
	}
	if third.Fingerprint == first.Fingerprint {
		t.Error("different act_seed produced the same fingerprint")
	}
	if third.Source != string(SourceEngine) {
		t.Errorf("distinct request source = %q, want engine", third.Source)
	}
}
