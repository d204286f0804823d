package attention

import (
	"slices"
	"testing"

	"bittactical/internal/nn"
)

// TestRegisteredWorkloads builds every registered workload — the paper's
// seven and this package's zoo — at the default zoo configuration, lowers
// it onto 16 lanes, and holds its reuse-weighted weight sparsity within
// 0.02 of the registered target. BuildModel validates every layer, so a
// builder that emits an inconsistent layer fails here by name.
func TestRegisteredWorkloads(t *testing.T) {
	names := nn.Names()
	for _, want := range append(slices.Clone(nn.ModelNames), ModelNames...) {
		if !slices.Contains(names, want) {
			t.Errorf("%s is not registered (registry: %v)", want, names)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			m, err := nn.BuildModel(name, nn.DefaultZoo())
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Layers) == 0 {
				t.Fatal("model has no layers")
			}
			lws, err := m.Lowered(16, m.GenerateActs(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(lws) != len(m.Layers) {
				t.Fatalf("lowered %d of %d layers", len(lws), len(m.Layers))
			}
			got, target := m.WeightSparsity(), m.TargetWeightSparsity
			if diff := got - target; diff > 0.02 || diff < -0.02 {
				t.Errorf("weight sparsity %.4f, target %.2f", got, target)
			}
		})
	}
}
