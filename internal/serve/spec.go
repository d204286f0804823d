// Package serve is the evaluation service behind cmd/tclserve: the HTTP
// surface over the simulation engine, plus the serving-tier performance
// machinery the engine itself does not provide — content-addressed request
// fingerprinting, request-level single-flight coalescing, a byte-budgeted
// LRU of finished sweeps, NDJSON streaming of per-(config, layer) results,
// and a shard mode that spreads one sweep's (config, layer) grid across
// worker processes and merges it deterministically. See DESIGN.md §13.
package serve

import (
	"errors"
	"fmt"
	"strings"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	_ "bittactical/internal/backend/dstripes" // register the plugin back-end
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// ConfigSpec names one accelerator configuration of the Table-2 family.
type ConfigSpec struct {
	// Backend: "dense" (DaDianNao++ baseline), "front-end" (weight skipping
	// with a bit-parallel back-end), or any registered back-end name
	// (backend.Names(): "TCLp", "TCLe", "dstripes-sm", ...).
	Backend string `json:"backend"`
	// Pattern is a connectivity pattern label (sched.KnownPatternNames);
	// required for "front-end", optional for the serial back-ends (empty =
	// no weight skipping, the Pragmatic/Dynamic-Stripes-like rows).
	Pattern string `json:"pattern,omitempty"`
	// Width is the datapath width: 16 (default) or 8.
	Width int `json:"width,omitempty"`
}

// Build resolves the spec against the process-wide back-end registry. The
// unknown-backend error lists every registered name, so a 400 tells the
// client what the server actually supports.
func (c ConfigSpec) Build() (arch.Config, error) {
	var p sched.Pattern
	if c.Pattern != "" {
		var err error
		p, err = sched.ByName(c.Pattern)
		if err != nil {
			return arch.Config{}, err
		}
	}
	var cfg arch.Config
	switch strings.ToLower(c.Backend) {
	case "dense", "dadiannao++", "dadiannao":
		if c.Pattern != "" {
			return arch.Config{}, fmt.Errorf("backend %q takes no pattern", c.Backend)
		}
		cfg = arch.DaDianNaoPP()
	case "front-end", "frontend", "fe":
		if c.Pattern == "" {
			return arch.Config{}, fmt.Errorf("backend %q requires a pattern", c.Backend)
		}
		cfg = arch.FrontEndOnly(p)
	default:
		// Everything else resolves through the process-wide back-end
		// registry, so plugin back-ends become reachable over the API by
		// registering themselves — no handler changes.
		be, err := backend.Lookup(c.Backend)
		if err != nil {
			return arch.Config{}, fmt.Errorf("unknown backend %q (want dense, front-end, or one of: %s)",
				c.Backend, strings.Join(backend.Names(), ", "))
		}
		cfg = arch.NewTCL(p, be)
	}
	switch c.Width {
	case 0, 16:
	case 8:
		cfg = cfg.WithWidth(fixed.W8)
	default:
		return arch.Config{}, fmt.Errorf("unsupported width %d (want 8 or 16)", c.Width)
	}
	return cfg, nil
}

// DefaultConfigs is the sweep run when a request names none: the dense
// baseline and both serial back-ends under the paper's headline pattern.
func DefaultConfigs() []ConfigSpec {
	return []ConfigSpec{
		{Backend: "dense"},
		{Backend: "tclp", Pattern: "T8<2,5>"},
		{Backend: "tcle", Pattern: "T8<2,5>"},
	}
}

// maxBatch bounds a request's batch. Sequence workloads' layers grow with
// it, and no experiment, example or test runs above batch 4.
const maxBatch = 64

// ModelSpec is the shared model-selection part of every endpoint. Model
// resolves against the process-wide workload registry (nn.Names(), also
// served at GET /v1/models) — registered zoos outside internal/nn, like the
// transformer-era workloads, become reachable with no handler changes.
type ModelSpec struct {
	Model        string  `json:"model"`
	ChannelScale float64 `json:"channel_scale,omitempty"`
	SpatialScale float64 `json:"spatial_scale,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	ActSeed      int64   `json:"act_seed,omitempty"`
	// Batch multiplies sequence workloads' token windows (ZooConfig.Batch);
	// 0 means 1.
	Batch int `json:"batch,omitempty"`
}

// Build instantiates the model with every default applied, returning the
// resolved zoo configuration and activation seed alongside — the canonical
// values Fingerprint hashes, so a request that spells a default explicitly
// coalesces with one that omits it.
//
// Scales above 1 (the native topology) and batches above maxBatch are
// rejected before anything is built: weights grow with the square of the
// channel scale, and the build runs before the request's deadline starts.
// Values <= 0 mean the default.
func (ms ModelSpec) Build() (*nn.Model, nn.ZooConfig, int64, error) {
	if ms.Model == "" {
		return nil, nn.ZooConfig{}, 0, errors.New("missing model (want one of " + strings.Join(nn.Names(), ", ") + ")")
	}
	switch {
	case ms.ChannelScale > 1:
		return nil, nn.ZooConfig{}, 0, fmt.Errorf("channel_scale %g is above 1 (the native topology)", ms.ChannelScale)
	case ms.SpatialScale > 1:
		return nil, nn.ZooConfig{}, 0, fmt.Errorf("spatial_scale %g is above 1 (the native topology)", ms.SpatialScale)
	case ms.Batch > maxBatch:
		return nil, nn.ZooConfig{}, 0, fmt.Errorf("batch %d is above the maximum of %d", ms.Batch, maxBatch)
	}
	zoo := nn.DefaultZoo()
	if ms.ChannelScale > 0 {
		zoo.ChannelScale = ms.ChannelScale
	}
	if ms.SpatialScale > 0 {
		zoo.SpatialScale = ms.SpatialScale
	}
	if ms.Seed != 0 {
		zoo.Seed = ms.Seed
	}
	if ms.Batch > 1 {
		zoo.Batch = ms.Batch
	}
	m, err := nn.BuildModel(ms.Model, zoo)
	if err != nil {
		return nil, nn.ZooConfig{}, 0, err
	}
	actSeed := ms.ActSeed
	if actSeed == 0 {
		actSeed = 7
	}
	return m, zoo, actSeed, nil
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	ModelSpec
	Configs   []ConfigSpec `json:"configs,omitempty"`
	TimeoutMs int64        `json:"timeout_ms,omitempty"`
	// Stream switches the response to NDJSON: one header line, one line per
	// (config, layer) result the moment it merges, one summary line. See
	// DESIGN.md §13 for the line grammar.
	Stream bool `json:"stream,omitempty"`
}

// LayerPayload is one layer's result as the API reports it.
type LayerPayload struct {
	Name        string `json:"name"`
	Cycles      int64  `json:"cycles"`
	DenseCycles int64  `json:"dense_cycles"`
	MACs        int64  `json:"macs"`
}

// ConfigPayload is one configuration's result as the API reports it.
type ConfigPayload struct {
	Name        string         `json:"name"`
	Cycles      int64          `json:"cycles"`
	DenseCycles int64          `json:"dense_cycles"`
	Speedup     float64        `json:"speedup"`
	Layers      []LayerPayload `json:"layers"`
}

// SimulateResponse is the buffered (non-streaming) response of
// POST /v1/simulate.
type SimulateResponse struct {
	Model string `json:"model"`
	// Fingerprint is the request's content address; two requests with the
	// same fingerprint get bit-identical results (from one engine run).
	Fingerprint string `json:"fingerprint"`
	// Source says where the results came from: "engine" (this request ran
	// the simulation), "coalesced" (joined an identical in-flight request),
	// or "cache" (served from the finished-result LRU).
	Source    string          `json:"source"`
	Configs   []ConfigPayload `json:"configs"`
	ElapsedMs float64         `json:"elapsed_ms"`
}

// payloadFromLayers assembles one config's payload from its per-layer
// results. Both the single-process and the shard-merge paths shape through
// this one function — the totals are integer sums of the per-layer cells
// and the speedup a pure function of the totals, so identical cells give
// byte-identical payloads however the grid was partitioned.
func payloadFromLayers(name string, layers []LayerPayload) ConfigPayload {
	cp := ConfigPayload{Name: name, Layers: layers}
	for _, l := range layers {
		cp.Cycles += l.Cycles
		cp.DenseCycles += l.DenseCycles
	}
	cp.Speedup = 1
	if cp.Cycles > 0 {
		cp.Speedup = float64(cp.DenseCycles) / float64(cp.Cycles)
	}
	return cp
}

// layerPayload projects one engine result onto the API's layer shape.
func layerPayload(l sim.LayerResult) LayerPayload {
	return LayerPayload{Name: l.Name, Cycles: l.Cycles, DenseCycles: l.DenseCycles, MACs: l.MACs}
}

// ScheduleRequest is the body of POST /v1/schedule.
type ScheduleRequest struct {
	ModelSpec
	Pattern   string `json:"pattern"`
	Algorithm string `json:"algorithm,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
}

// ScheduleLayerPayload is one layer's schedule compaction report.
type ScheduleLayerPayload struct {
	Name       string  `json:"name"`
	Filters    int     `json:"filters"`
	DenseCols  int     `json:"dense_columns"`
	Columns    int     `json:"columns"`
	Compaction float64 `json:"compaction"`
}

// ScheduleResponse is the response of POST /v1/schedule.
type ScheduleResponse struct {
	Model      string                 `json:"model"`
	Pattern    string                 `json:"pattern"`
	Algorithm  string                 `json:"algorithm"`
	Layers     []ScheduleLayerPayload `json:"layers"`
	DenseCols  int                    `json:"dense_columns"`
	Columns    int                    `json:"columns"`
	Compaction float64                `json:"compaction"`
	ElapsedMs  float64                `json:"elapsed_ms"`
}
