package sim

import (
	"bittactical/internal/arch"
	"bittactical/internal/nn"
)

// EstimateSweepLayerCosts predicts each layer's serial-cycle contribution to
// a sweep under cfgs from geometry alone — no activations, no scheduling,
// no simulation — indexed like m.Layers. Under one config a layer costs
// exactly the LayerResult.DenseCycles a simulation reports
// (arch.Config.DenseCycles), and the costs sum over the configs, because a
// shard worker simulates its layer slice under every config.
//
// The serving tier's shard coordinator balances layer partitions on this
// key (LPT bin packing): the per-layer serial cost of every back-end in the
// family is the dense schedule length scaled by a value-dependent
// compaction factor that varies far less across layers than the
// orders-of-magnitude geometric spread between a conv1-class layer and a
// late fully-connected one, so the dense prediction ranks layers by cost
// well enough.
func EstimateSweepLayerCosts(cfgs []arch.Config, m *nn.Model) ([]int64, error) {
	costs := make([]int64, len(m.Layers))
	for _, cfg := range cfgs {
		for i, l := range m.Layers {
			// Lower touches only layer geometry until an activation is
			// fetched, so a nil input tensor is safe here.
			lw, err := nn.Lower(l, nil, cfg.Lanes)
			if err != nil {
				return nil, err
			}
			costs[i] += cfg.DenseCycles(lw.Filters, lw.Steps, lw.WindowCount)
		}
	}
	return costs, nil
}
