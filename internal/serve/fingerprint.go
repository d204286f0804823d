package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"bittactical/internal/arch"
	"bittactical/internal/nn"
)

// Fingerprint content-addresses one simulate request: a stable hex digest
// over everything that determines the result bits — the resolved model
// identity (name, zoo scales, weight seed), the activation seed, and each
// resolved configuration (name, back-end, pattern, scheduler, width, and
// the datapath geometry) in request order.
//
// Everything that does NOT change the result is deliberately excluded: the
// execution knobs timeout_ms and stream, and the server's engine worker
// count (the engine's merge is bit-identical at any worker count).
// Defaults are hashed in their applied form — ModelSpec.Build and
// ConfigSpec.Build canonicalize first — so `{"model":"alexnet-es"}` and the
// same request with every default spelled out coalesce onto one digest, and
// one engine run.
func Fingerprint(m *nn.Model, zoo nn.ZooConfig, actSeed int64, cfgs []arch.Config) string {
	h := sha256.New()
	// v2 guards the grammar itself: bump when the canonical form changes so
	// stale cache keys can never alias fresh ones (v2 added batch).
	fmt.Fprintf(h, "tclserve-fp-v2\nmodel=%s cs=%g ss=%g seed=%d act=%d w=%d batch=%d\n",
		m.Name, zoo.ChannelScale, zoo.SpatialScale, zoo.Seed, actSeed, zoo.Width, zoo.BatchSize())
	for _, cfg := range cfgs {
		writeConfig(h, cfg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeConfig(w io.Writer, cfg arch.Config) {
	be := "-"
	if cfg.Backend != nil {
		be = cfg.Backend.Name()
	}
	fmt.Fprintf(w, "cfg=%s be=%s pat=%s alg=%d w=%d t=%d f=%d l=%d win=%d ps=%d\n",
		cfg.Name, be, cfg.Pattern.Name, cfg.Scheduler, cfg.Width,
		cfg.Tiles, cfg.FiltersPerTile, cfg.Lanes, cfg.WindowsPerTile, cfg.PsumRegsPerPE)
}
