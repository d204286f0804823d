package nn_test

import (
	"testing"

	"bittactical/internal/nn"
	_ "bittactical/internal/workloads/attention" // registers the attention workloads
)

// TestFilterRowMatchesWeight holds FilterRowInto's strided gather to
// Weight, slot for slot, on every filter of every compute layer of every
// registered model at channel scales 0.1 and 0.25 and at 4, 16 and 32
// lanes: conv and FC layers over channel groups, folded first layers,
// grouped and depthwise convolutions. The row starts poisoned, so a slot
// the gather skips fails too.
func TestFilterRowMatchesWeight(t *testing.T) {
	for _, name := range nn.Names() {
		for _, scale := range []float64{0.1, 0.25} {
			zoo := nn.DefaultZoo()
			zoo.ChannelScale = scale
			m, err := nn.BuildModel(name, zoo)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range m.Layers {
				if !l.HasCompute() {
					continue
				}
				for _, lanes := range []int{4, 16, 32} {
					lw, err := nn.Lower(l, nil, lanes)
					if err != nil {
						t.Fatal(err)
					}
					row := make([]int32, lw.Steps*lw.Lanes)
					for f := 0; f < lw.Filters; f++ {
						for i := range row {
							row[i] = -1 << 31
						}
						lw.FilterRowInto(f, row)
						for st := 0; st < lw.Steps; st++ {
							for ln := 0; ln < lanes; ln++ {
								if got, want := row[st*lanes+ln], lw.Weight(f, st, ln); got != want {
									t.Fatalf("%s at scale %v, layer %s, %d lanes: filter %d step %d lane %d = %d, Weight %d",
										name, scale, l.Name, lanes, f, st, ln, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
