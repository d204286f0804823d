package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"bittactical/internal/nn"
	_ "bittactical/internal/workloads/attention" // registry coverage includes the external zoo
)

// TestSimulateUnknownModelListsRegistry pins the unknown-model error
// contract, the model-side twin of the unknown-backend one: HTTP 400, JSON
// content type, and a body that names every registered workload — including
// zoos registered entirely outside internal/nn — so API users can discover
// what the registry holds.
func TestSimulateUnknownModelListsRegistry(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := postJSON(t, h, "/v1/simulate", `{"model":"NotANet"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown model = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("400 body %q is not an {error: …} object (err %v)", rec.Body.String(), err)
	}
	if !strings.Contains(body["error"], `"NotANet"`) {
		t.Errorf("400 body does not echo the bad name: %s", body["error"])
	}
	for _, name := range nn.Names() {
		if !strings.Contains(body["error"], name) {
			t.Errorf("400 body does not list registered model %q: %s", name, body["error"])
		}
	}
}

// TestModelsEndpoint: GET /v1/models serves the registry (every name, plus
// the paper's seven separately) so clients need no out-of-band model list.
func TestModelsEndpoint(t *testing.T) {
	h := testServer(t, 2).Routes()
	rec := getPath(t, h, "/v1/models")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/models = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var resp struct {
		Models []string `json:"models"`
		Paper  []string `json:"paper"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := nn.Names()
	if len(resp.Models) != len(want) {
		t.Fatalf("models = %v, want %v", resp.Models, want)
	}
	for i, name := range want {
		if resp.Models[i] != name {
			t.Errorf("models[%d] = %q, want %q", i, resp.Models[i], name)
		}
	}
	if len(resp.Paper) != len(nn.ModelNames) {
		t.Errorf("paper = %v, want the paper's %d networks", resp.Paper, len(nn.ModelNames))
	}
	got := make(map[string]bool, len(resp.Models))
	for _, name := range resp.Models {
		got[name] = true
	}
	for _, name := range []string{"BERT-Attn", "GPT2-Attn", "ViT-Attn", "ConvNeXt-DW"} {
		if !got[name] {
			t.Errorf("externally registered workload %q missing from /v1/models", name)
		}
	}
}

// TestSimulateAttentionWorkload is the service-level seam proof for the
// workload registry: a transformer-era model registered entirely outside
// internal/nn — and never mentioned in handler code — simulates end-to-end
// over /v1/simulate, and after the engine run the activation bit-plane
// profile shows up in /metrics.
func TestSimulateAttentionWorkload(t *testing.T) {
	h := testServer(t, 2).Routes()
	body := `{"model":"bert-attn","channel_scale":0.1,"spatial_scale":0.25,` +
		`"configs":[{"backend":"tcle","pattern":"T8<2,5>"}]}`
	rec := postJSON(t, h, "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "BERT-Attn" {
		t.Errorf("model = %q, want the registry's display name BERT-Attn", resp.Model)
	}
	if len(resp.Configs) != 1 || resp.Configs[0].Cycles == 0 || len(resp.Configs[0].Layers) == 0 {
		t.Fatalf("empty attention simulation result: %+v", resp)
	}
	if resp.Configs[0].Speedup <= 1 {
		t.Errorf("TCLe speedup = %.2f, want > 1 on a sparse attention block", resp.Configs[0].Speedup)
	}

	mrec := getPath(t, h, "/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", mrec.Code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	for _, name := range []string{
		"sparsity_slice_values_total",
		"sparsity_slice_zero_values_total",
		"sparsity_slice_zero_bits_total",
	} {
		var v int64
		if err := json.Unmarshal(snap[name], &v); err != nil {
			t.Fatalf("metric %s = %s: %v", name, snap[name], err)
		}
		if v == 0 {
			t.Errorf("metric %s is zero after an engine run", name)
		}
	}
}

// TestFingerprintGrammar pins the content-address grammar across the
// registry refactor: every registered model (old and new) hashes to a
// distinct digest, batch is part of the address, and batch 1 coalesces with
// an unset batch (the canonical form).
func TestFingerprintGrammar(t *testing.T) {
	fp := func(spec ModelSpec) string {
		t.Helper()
		m, zoo, actSeed, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return Fingerprint(m, zoo, actSeed, nil)
	}
	small := func(model string, batch int) ModelSpec {
		return ModelSpec{Model: model, ChannelScale: 0.1, SpatialScale: 0.25, Batch: batch}
	}

	seen := make(map[string]string)
	for _, name := range nn.Names() {
		d := fp(small(name, 0))
		if prev, ok := seen[d]; ok {
			t.Errorf("models %q and %q share fingerprint %s", prev, name, d)
		}
		seen[d] = name
	}

	if a, b := fp(small("BERT-Attn", 0)), fp(small("bert-attn", 1)); a != b {
		t.Errorf("batch 1 fingerprint %s != unset-batch fingerprint %s (canonicalization broken)", b, a)
	}
	if a, b := fp(small("BERT-Attn", 1)), fp(small("BERT-Attn", 2)); a == b {
		t.Error("batch 2 produced the same fingerprint as batch 1")
	}
	if a, b := fp(small("AlexNet-ES", 1)), fp(small("AlexNet-ES", 4)); a == b {
		t.Error("batch is not hashed for the paper zoo")
	}
}

// TestModelSpecBounds pins the request-size bounds: a channel or spatial
// scale above 1 (the native topology) or a batch above maxBatch is a 400
// naming the bound, raised before any model is built; values at the bound
// are served, and zero or negative values keep meaning "default". A scale
// small enough to shrink a layer's output to nothing is a 400 naming the
// layer: GoogLeNet's icp8 block sits behind four stride-2 pools, and below
// spatial scale 0.2 its input map is gone.
func TestModelSpecBounds(t *testing.T) {
	h := testServer(t, 2).Routes()
	for _, tc := range []struct {
		name    string
		spec    ModelSpec
		wantErr string // empty: Build must succeed
	}{
		{"channel scale 100", ModelSpec{Model: "AlexNet-ES", ChannelScale: 100}, "channel_scale 100 is above 1"},
		{"channel scale 1.01", ModelSpec{Model: "AlexNet-ES", ChannelScale: 1.01, SpatialScale: 0.25}, "channel_scale 1.01 is above 1"},
		{"spatial scale 1.5", ModelSpec{Model: "AlexNet-ES", ChannelScale: 0.1, SpatialScale: 1.5}, "spatial_scale 1.5 is above 1"},
		{"batch 65", ModelSpec{Model: "BERT-Attn", ChannelScale: 0.1, SpatialScale: 0.25, Batch: 65}, "batch 65 is above the maximum of 64"},
		{"native spatial scale", ModelSpec{Model: "AlexNet-ES", ChannelScale: 0.1, SpatialScale: 1}, ""},
		{"batch at the bound", ModelSpec{Model: "AlexNet-ES", ChannelScale: 0.1, SpatialScale: 0.25, Batch: maxBatch}, ""},
		{"non-positive means default", ModelSpec{Model: "AlexNet-ES", ChannelScale: -1, SpatialScale: 0, Batch: -2}, ""},
		{"GoogLeNet spatial scale 0.19", ModelSpec{Model: "GoogLeNet-ES", ChannelScale: 0.1, SpatialScale: 0.19}, "icp8/1x1"},
		{"GoogLeNet spatial scale 0.2", ModelSpec{Model: "GoogLeNet-ES", ChannelScale: 0.1, SpatialScale: 0.2}, ""},
	} {
		_, _, _, err := tc.spec.Build()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Build = %v, want success", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Build error = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		body, err := json.Marshal(SimulateRequest{ModelSpec: tc.spec})
		if err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, h, "/v1/simulate", string(body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.wantErr) {
			t.Errorf("%s: /v1/simulate = %d %s, want 400 naming %q", tc.name, rec.Code, rec.Body.String(), tc.wantErr)
		}
	}
}
