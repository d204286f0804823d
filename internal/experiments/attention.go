package experiments

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/sched"
	"bittactical/internal/workloads/attention"
)

// The transformer-era analogs of Table 1 and Figure 8b, over the workload
// zoo internal/workloads/attention registers from outside the engine.
// Importing it here (for its registration side effect and its name list)
// is the only coupling — the runners below reuse the same potential
// analysis and config sweep every paper figure flows through, which is the
// point of the workload seam: a new zoo costs a name list, not a new
// harness.

// attnOptions defaults the model set to the transformer-era zoo.
func attnOptions(o Options) Options {
	if len(o.Models) == 0 {
		o.Models = attention.ModelNames
	}
	return o
}

// AttnTable1 is the Table-1 analog for the transformer-era workloads: the
// ideal performance-improvement potential of each sparsity source, at the
// zoo width.
func AttnTable1(o Options) (*Table, error) {
	o = attnOptions(o)
	return table1At(o, o.zoo().Width, "attn-table1",
		"Transformer-era workloads: performance improvement potential")
}

// AttnFig8 is the Figure-8b analog: full TCLp and TCLe speedups over
// DaDianNao++ for the attention-block and depthwise/group-conv workloads.
func AttnFig8(o Options) (*Table, error) {
	o = attnOptions(o)
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	return configSweep(o, wls, fig8bConfigs(), "attn-fig8",
		"Transformer-era workloads: speedup with activation back-ends (all layers)")
}

// attnBatchSizes is the batch sweep of AttnBatch.
var attnBatchSizes = []int{1, 2, 4}

// AttnBatch sweeps the zoo's batch-size knob on one attention workload
// (the first selected model): token windows multiply, weights are reused
// across the batch, and the speedup of both serial back-ends is reported
// per batch size under the paper's headline T8<2,5> front-end.
func AttnBatch(o Options) (*Table, error) {
	o = attnOptions(o)
	name := o.models()[0]
	cfgs := []arch.Config{
		arch.TCLp(sched.T(2, 5)),
		arch.TCLe(sched.T(2, 5)),
	}
	t := &Table{
		ID:     "attn-batch",
		Title:  fmt.Sprintf("Batch-size sweep (%s): weight reuse vs back-end speedup", name),
		Header: []string{"Batch", "MACs", "TCLp", "TCLe"},
	}
	for _, b := range attnBatchSizes {
		ob := o
		ob.Zoo = o.zoo()
		ob.Zoo.Batch = b
		ob.Models = []string{name}
		wls, err := buildWorkloads(ob, ob.Zoo.Width)
		if err != nil {
			return nil, err
		}
		sweep, err := configSweep(ob, wls, cfgs, "attn-batch", "")
		if err != nil {
			return nil, err
		}
		// sweep rows: one per config, cells [label, model, geomean].
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", wls[0].Model.TotalMACs()),
			sweep.Rows[0][1],
			sweep.Rows[1][1],
		})
	}
	t.Notes = append(t.Notes,
		"batch multiplies FC token windows (ZooConfig.Batch); spatial layers are batch-invariant per image")
	return t, nil
}
