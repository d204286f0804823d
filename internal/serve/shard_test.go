package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newWorkerFleet starts n plain tclserve workers on loopback and returns a
// coordinator fronting them.
func newWorkerFleet(t *testing.T, n int) *Server {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w := New(Config{MaxInFlight: 4, DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute, Parallelism: 2})
		ts := httptest.NewServer(w.Routes())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return newCoordinator(t, urls)
}

// newCoordinator fronts the given worker base URLs (background probing off;
// tests drive liveness through dispatch outcomes or probeAll directly).
func newCoordinator(t *testing.T, urls []string) *Server {
	t.Helper()
	coord := New(Config{
		MaxInFlight:    4,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     time.Minute,
		Workers:        urls,
	})
	t.Cleanup(coord.Close)
	return coord
}

// goodWorker starts one real worker and returns its base URL.
func goodWorker(t *testing.T) string {
	t.Helper()
	w := New(Config{MaxInFlight: 4, DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute, Parallelism: 2})
	ts := httptest.NewServer(w.Routes())
	t.Cleanup(ts.Close)
	return ts.URL
}

// resolvedNames resolves config specs exactly like the coordinator does, so
// fault-injecting worker fixtures can return the CORRECT names (exercising
// the malformed-shape path, not the name-mismatch path) or deliberately
// wrong ones.
func resolvedNames(t *testing.T, specs []ConfigSpec) []string {
	t.Helper()
	cfgs, err := buildConfigs(specs)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(cfgs))
	for i := range cfgs {
		names[i] = cfgs[i].Name
	}
	return names
}

// referenceSweep runs the request single-process and returns the marshalled
// config payloads — the byte-identity baseline.
func referenceSweep(t *testing.T, body string) string {
	t.Helper()
	rec := postJSON(t, testServer(t, 2).Routes(), "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("single-process simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var ref SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return string(refJSON)
}

// TestShardEndpoint exercises the worker leg directly: a layer-slice grid
// whose cells match the corresponding layers of a full local sweep.
func TestShardEndpoint(t *testing.T) {
	h := testServer(t, 2).Routes()
	full := postJSON(t, h, "/v1/simulate", smallBody(`"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`))
	if full.Code != http.StatusOK {
		t.Fatalf("full simulate = %d", full.Code)
	}
	var ref SimulateResponse
	if err := json.Unmarshal(full.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	nLayers := len(ref.Configs[0].Layers)
	if nLayers < 3 {
		t.Fatalf("model has %d layers; slice test needs >= 3", nLayers)
	}

	// An out-of-order, non-contiguous slice with a duplicated index: the
	// response must follow the request's layer list, not the model's, and
	// both cells of the duplicate must equal the full sweep's.
	layers := []int{nLayers - 1, 0, 2, 0}
	body := smallBody(fmt.Sprintf(`"configs":[{"backend":"tcle","pattern":"T8<2,5>"}],"layers":[%d,0,2,0]`, nLayers-1))
	rec := postJSON(t, h, "/v1/shard", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/shard = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ShardResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 1 || len(resp.Cells[0]) != len(layers) {
		t.Fatalf("shard cells shape %dx%d, want 1x%d", len(resp.Cells), len(resp.Cells[0]), len(layers))
	}
	for i, li := range layers {
		got, want := resp.Cells[0][i], ref.Configs[0].Layers[li]
		if got != want {
			t.Errorf("shard cell %d (layer %d) = %+v, full sweep has %+v", i, li, got, want)
		}
	}

	// Bad slices are request errors.
	for name, bad := range map[string]string{
		"out of range": smallBody(fmt.Sprintf(`"configs":[{"backend":"dense"}],"layers":[%d]`, nLayers)),
		"negative":     smallBody(`"configs":[{"backend":"dense"}],"layers":[0,-1]`),
		"no layers":    smallBody(`"configs":[{"backend":"dense"}]`),
		"no configs":   smallBody(`"layers":[0]`),
	} {
		if rec := postJSON(t, h, "/v1/shard", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: /v1/shard = %d, want 400", name, rec.Code)
		}
	}
}

// TestShardCoordinatorBitIdentical is the acceptance gate: the coordinator
// path produces byte-identical config payloads to a single-process run, at
// every worker count.
func TestShardCoordinatorBitIdentical(t *testing.T) {
	body := smallBody(`"configs":[{"backend":"dense"},{"backend":"tclp","pattern":"T8<2,5>"},{"backend":"tcle","pattern":"T8<2,5>"}]`)

	single := postJSON(t, testServer(t, 2).Routes(), "/v1/simulate", body)
	if single.Code != http.StatusOK {
		t.Fatalf("single-process simulate = %d", single.Code)
	}
	var ref SimulateResponse
	if err := json.Unmarshal(single.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref.Configs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3} {
		coord := newWorkerFleet(t, workers)
		rec := postJSON(t, coord.Routes(), "/v1/simulate", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d-worker simulate = %d: %s", workers, rec.Code, rec.Body.String())
		}
		var got SimulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != ref.Fingerprint {
			t.Errorf("%d workers: fingerprint %s != single-process %s", workers, got.Fingerprint, ref.Fingerprint)
		}
		gotJSON, err := json.Marshal(got.Configs)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(refJSON) {
			t.Errorf("%d workers: sharded payload differs from single-process:\n%s\nvs\n%s", workers, gotJSON, refJSON)
		}
	}
}

// TestShardCoordinatorStreams: the coordinator's streamed response carries
// the full grid, cell values identical to single-process.
func TestShardCoordinatorStreams(t *testing.T) {
	configs := `"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`
	single := postJSON(t, testServer(t, 2).Routes(), "/v1/simulate", smallBody(configs))
	if single.Code != http.StatusOK {
		t.Fatalf("single-process simulate = %d", single.Code)
	}
	var ref SimulateResponse
	if err := json.Unmarshal(single.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	coord := newWorkerFleet(t, 2)
	rec := postJSON(t, coord.Routes(), "/v1/simulate", smallBody(configs+`,"stream":true`))
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded stream = %d: %s", rec.Code, rec.Body.String())
	}
	st := parseStream(t, rec.Body.String())
	if st.header == nil || st.summary == nil {
		t.Fatalf("sharded stream shape: order = %v", st.order)
	}
	if len(st.layers) != len(ref.Configs[0].Layers) {
		t.Fatalf("sharded stream carried %d layer lines, want %d", len(st.layers), len(ref.Configs[0].Layers))
	}
	for _, l := range st.layers {
		want := ref.Configs[0].Layers[l.Layer]
		if l.Name != want.Name || l.Cycles != want.Cycles || l.DenseCycles != want.DenseCycles || l.MACs != want.MACs {
			t.Errorf("sharded stream cell (0,%d) = %+v, single-process has %+v", l.Layer, l, want)
		}
	}
	if got, want := st.summary.Configs[0], ref.Configs[0]; got.Cycles != want.Cycles || got.Speedup != want.Speedup {
		t.Errorf("sharded summary = %+v, single-process totals %+v", got, want)
	}
}

// TestShardFailoverBrokenWorker: a fleet with one broken worker no longer
// answers 502 — the broken worker's layer slice fails over to the survivor
// and the merged sweep is byte-identical to single-process.
func TestShardFailoverBrokenWorker(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	body := smallBody(`"configs":[{"backend":"dense"},{"backend":"tcle","pattern":"T8<2,5>"}]`)
	refJSON := referenceSweep(t, body)

	coord := newCoordinator(t, []string{goodWorker(t), broken.URL})
	rec := postJSON(t, coord.Routes(), "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover simulate = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	var got SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != refJSON {
		t.Errorf("failover payload differs from single-process:\n%s\nvs\n%s", gotJSON, refJSON)
	}
}

// TestShardFailoverStreamNoDuplicates: a streamed sweep that survives a
// worker failure carries every (config, layer) cell exactly once — the
// failed worker's reply is validated before anything is emitted, so nothing
// streams twice.
func TestShardFailoverStreamNoDuplicates(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	configs := `"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`

	single := postJSON(t, testServer(t, 2).Routes(), "/v1/simulate", smallBody(configs))
	if single.Code != http.StatusOK {
		t.Fatalf("single-process simulate = %d", single.Code)
	}
	var ref SimulateResponse
	if err := json.Unmarshal(single.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	coord := newCoordinator(t, []string{goodWorker(t), broken.URL})
	rec := postJSON(t, coord.Routes(), "/v1/simulate", smallBody(configs+`,"stream":true`))
	if rec.Code != http.StatusOK {
		t.Fatalf("failover stream = %d: %s", rec.Code, rec.Body.String())
	}
	st := parseStream(t, rec.Body.String())
	if st.summary == nil {
		t.Fatalf("failover stream never reached the summary: order = %v", st.order)
	}
	if len(st.layers) != len(ref.Configs[0].Layers) {
		t.Fatalf("failover stream carried %d layer lines, want %d (each cell exactly once)", len(st.layers), len(ref.Configs[0].Layers))
	}
	seen := make(map[int]bool)
	for _, l := range st.layers {
		if seen[l.Layer] {
			t.Errorf("layer %d streamed more than once", l.Layer)
		}
		seen[l.Layer] = true
		want := ref.Configs[0].Layers[l.Layer]
		if l.Cycles != want.Cycles || l.DenseCycles != want.DenseCycles {
			t.Errorf("failover stream cell (0,%d) = %+v, single-process has %+v", l.Layer, l, want)
		}
	}
}

// TestShardAllWorkersBrokenIs502: when every worker fails, failover has
// nowhere to go and the answer is a Bad Gateway naming a worker, as JSON.
func TestShardAllWorkersBrokenIs502(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "worker on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	coord := newCoordinator(t, []string{broken.URL})
	rec := postJSON(t, coord.Routes(), "/v1/simulate", smallBody(`"configs":[{"backend":"dense"}]`))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("broken-fleet simulate = %d, want 502 (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("502 Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(rec.Body.String(), broken.URL) {
		t.Errorf("502 body does not name the failing worker: %s", rec.Body.String())
	}
	// The failure is not cached: with a healthy fleet the same fingerprint
	// succeeds.
	coord2 := newWorkerFleet(t, 2)
	if rec := postJSON(t, coord2.Routes(), "/v1/simulate", smallBody(`"configs":[{"backend":"dense"}]`)); rec.Code != http.StatusOK {
		t.Errorf("healthy-fleet retry = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestShardMalformedResponseNoPanic: a worker replying with a
// structurally-valid ShardResponse whose cell grid is SHORT (fewer cells
// than requested layers) used to panic the coordinator — the stream path
// emitted cells before validating the shape. Now the reply is validated
// before any merge or emit: alone, the malformed worker yields a 502 that
// names it; alongside a good worker its slice fails over and the sweep
// completes byte-identically.
func TestShardMalformedResponseNoPanic(t *testing.T) {
	specs := []ConfigSpec{{Backend: "tcle", Pattern: "T8<2,5>"}}
	names := resolvedNames(t, specs)
	// The fixture returns CORRECT resolved names (so it does not trip the
	// config cross-check) with zero-length cell rows.
	malformed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := ShardResponse{Model: "AlexNet-ES", Configs: names, Cells: make([][]LayerPayload, len(names))}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(malformed.Close)
	configs := `"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`

	// Alone (streamed, the old panic path): 502-class terminal, no panic.
	solo := newCoordinator(t, []string{malformed.URL})
	rec := postJSON(t, solo.Routes(), "/v1/simulate", smallBody(configs+`,"stream":true`))
	if rec.Code != http.StatusOK {
		t.Fatalf("streamed request committed %d before the failure, want 200+error line (%s)", rec.Code, rec.Body.String())
	}
	st := parseStream(t, rec.Body.String())
	if st.errLine == nil {
		t.Fatalf("malformed-fleet stream carried no error line: %s", rec.Body.String())
	}
	if !strings.Contains(st.errLine.Error, malformed.URL) {
		t.Errorf("stream error does not name the malformed worker: %s", st.errLine.Error)
	}
	if len(st.layers) != 0 {
		t.Errorf("%d cells emitted from a malformed reply (validate-before-emit violated)", len(st.layers))
	}

	// Alone, unstreamed: plain 502 naming the worker.
	rec = postJSON(t, newCoordinator(t, []string{malformed.URL}).Routes(), "/v1/simulate", smallBody(configs))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), malformed.URL) {
		t.Errorf("malformed-fleet simulate = %d (%s), want 502 naming the worker", rec.Code, rec.Body.String())
	}

	// With a survivor: the malformed worker's slice fails over.
	body := smallBody(configs)
	refJSON := referenceSweep(t, body)
	rec = postJSON(t, newCoordinator(t, []string{goodWorker(t), malformed.URL}).Routes(), "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover from malformed worker = %d: %s", rec.Code, rec.Body.String())
	}
	var got SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got.Configs)
	if string(gotJSON) != refJSON {
		t.Errorf("failover payload differs from single-process")
	}
}

// TestShardConfigMismatchIs502: a worker that resolves the sweep's configs
// to different names than the coordinator marks the fleet inconsistent —
// NOT a retryable failure (re-dispatching could silently merge grids from
// divergent designs), even when healthy workers remain.
func TestShardConfigMismatchIs502(t *testing.T) {
	specs := []ConfigSpec{{Backend: "dense"}, {Backend: "tcle", Pattern: "T8<2,5>"}}
	names := resolvedNames(t, specs)
	wrong := make([]string, len(names))
	copy(wrong, names)
	wrong[len(wrong)-1] = "NotTheSameDesign"
	mismatch := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sreq ShardRequest
		_ = json.NewDecoder(r.Body).Decode(&sreq)
		// Shape is perfectly well-formed — only the names diverge.
		resp := ShardResponse{Model: "AlexNet-ES", Configs: wrong, Cells: make([][]LayerPayload, len(wrong))}
		for k := range resp.Cells {
			resp.Cells[k] = make([]LayerPayload, len(sreq.Layers))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(mismatch.Close)

	coord := newCoordinator(t, []string{goodWorker(t), mismatch.URL})
	rec := postJSON(t, coord.Routes(), "/v1/simulate", smallBody(`"configs":[{"backend":"dense"},{"backend":"tcle","pattern":"T8<2,5>"}]`))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("mismatched-fleet simulate = %d, want 502 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "config mismatch") || !strings.Contains(rec.Body.String(), mismatch.URL) {
		t.Errorf("502 body does not attribute the config mismatch: %s", rec.Body.String())
	}
}

// TestShardMidResponseAbortFailsOver: a worker that dies mid-response
// (partial JSON, then an aborted connection) is a transport failure like
// any other — its slice fails over and the sweep stays byte-identical.
func TestShardMidResponseAbortFailsOver(t *testing.T) {
	abort := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"model":"AlexNet-ES","configs":["Dense`))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(abort.Close)

	body := smallBody(`"configs":[{"backend":"dense"},{"backend":"tclp","pattern":"T8<2,5>"}]`)
	refJSON := referenceSweep(t, body)
	coord := newCoordinator(t, []string{goodWorker(t), abort.URL})
	rec := postJSON(t, coord.Routes(), "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover from aborted worker = %d: %s", rec.Code, rec.Body.String())
	}
	var got SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got.Configs)
	if string(gotJSON) != refJSON {
		t.Errorf("mid-abort failover payload differs from single-process:\n%s\nvs\n%s", gotJSON, refJSON)
	}
}

// TestFingerprintSensitivity: the content address moves with every value
// the engine output depends on, and only those.
func TestFingerprintSensitivity(t *testing.T) {
	base := `{"model":"AlexNet-ES","channel_scale":0.1,"spatial_scale":0.25,"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]`
	fpOf := func(body string) string {
		t.Helper()
		rec := postJSON(t, testServer(t, 2).Routes(), "/v1/simulate", body+"}")
		if rec.Code != http.StatusOK {
			t.Fatalf("simulate = %d: %s", rec.Code, rec.Body.String())
		}
		var resp SimulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Fingerprint
	}
	ref := fpOf(base)
	// Execution knobs do not move the fingerprint.
	for name, same := range map[string]string{
		"timeout": base + `,"timeout_ms":59000`,
	} {
		if got := fpOf(same); got != ref {
			t.Errorf("%s moved the fingerprint: %s vs %s", name, got, ref)
		}
	}
	// Content knobs do.
	for name, diff := range map[string]string{
		"weight seed":   strings.Replace(base, `"spatial_scale":0.25`, `"spatial_scale":0.25,"seed":2`, 1),
		"act seed":      strings.Replace(base, `"spatial_scale":0.25`, `"spatial_scale":0.25,"act_seed":9`, 1),
		"channel scale": strings.Replace(base, `"channel_scale":0.1`, `"channel_scale":0.12`, 1),
		"pattern":       strings.Replace(base, "T8<2,5>", "L8<1,6>", 1),
		"backend":       strings.Replace(base, "tcle", "tclp", 1),
		"width":         strings.Replace(base, `"pattern":"T8<2,5>"`, `"pattern":"T8<2,5>","width":8`, 1),
		"extra config":  strings.Replace(base, `"configs":[`, `"configs":[{"backend":"dense"},`, 1),
	} {
		if got := fpOf(diff); got == ref {
			t.Errorf("%s did NOT move the fingerprint", name)
		}
	}
}
