package sim

import (
	"reflect"
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
)

// This file keeps the pre-registry back-end dispatch alive as test-only
// reference implementations: each legacy type transliterates the body one
// arm of the deleted switches (cost.go's cost table fill, golden.go's
// executePsum) used to run for that kind. The differential tests below run
// the full engine once with a registered back-end and once with its legacy
// twin and require bit-identical results — the pin that the refactor moved
// the semantics without changing them.

type legacyBitParallel struct{}

func (legacyBitParallel) Name() string                         { return "legacy-bit-parallel" }
func (legacyBitParallel) Serial() bool                         { return false }
func (legacyBitParallel) OffsetEncoder() bool                  { return false }
func (legacyBitParallel) Energy() backend.EnergyCoeffs         { return backend.EnergyCoeffs{} }
func (legacyBitParallel) Area() backend.AreaCoeffs             { return backend.AreaCoeffs{} }
func (legacyBitParallel) Cost(v int32, w fixed.Width) int      { return 1 }
func (legacyBitParallel) MAC(wt, a int32, w fixed.Width) int64 { return int64(wt) * int64(a) }
func (legacyBitParallel) Terms(a int32, w fixed.Width) []int64 {
	if a == 0 {
		return []int64{0}
	}
	return []int64{int64(a)}
}

type legacyTCLp struct{}

func (legacyTCLp) Name() string                 { return "legacy-TCLp" }
func (legacyTCLp) Serial() bool                 { return true }
func (legacyTCLp) OffsetEncoder() bool          { return false }
func (legacyTCLp) Energy() backend.EnergyCoeffs { return backend.EnergyCoeffs{} }
func (legacyTCLp) Area() backend.AreaCoeffs     { return backend.AreaCoeffs{} }

func (legacyTCLp) Cost(v int32, w fixed.Width) int {
	return bits.ValuePrecision(v, w).Bits()
}

func (legacyTCLp) MAC(wt, a int32, w fixed.Width) int64 {
	m := int64(a)
	neg := m < 0
	if neg {
		m = -m
	}
	var acc int64
	for b := 0; m != 0; b++ {
		if m&1 == 1 {
			acc += int64(wt) << uint(b)
		}
		m >>= 1
	}
	if neg {
		acc = -acc
	}
	return acc
}

func (legacyTCLp) Terms(a int32, w fixed.Width) []int64 {
	if a == 0 {
		return nil
	}
	neg := a < 0
	m := a
	if neg {
		m = -m
	}
	p := bits.ValuePrecision(a, w)
	out := make([]int64, 0, p.Bits())
	for b := p.Lo; b <= p.Hi; b++ {
		if m&(1<<uint(b)) != 0 {
			f := int64(1) << uint(b)
			if neg {
				f = -f
			}
			out = append(out, f)
		} else {
			out = append(out, 0)
		}
	}
	if neg {
		out = append(out, 0)
	}
	return out
}

type legacyTCLe struct{}

func (legacyTCLe) Name() string                 { return "legacy-TCLe" }
func (legacyTCLe) Serial() bool                 { return true }
func (legacyTCLe) OffsetEncoder() bool          { return true }
func (legacyTCLe) Energy() backend.EnergyCoeffs { return backend.EnergyCoeffs{} }
func (legacyTCLe) Area() backend.AreaCoeffs     { return backend.AreaCoeffs{} }

func (legacyTCLe) Cost(v int32, w fixed.Width) int {
	return bits.OneffsetCount(v, w)
}

func (legacyTCLe) MAC(wt, a int32, w fixed.Width) int64 {
	var psum int64
	for _, t := range bits.Booth(a, w) {
		term := int64(wt) << uint(t.Exp)
		if t.Sign < 0 {
			psum -= term
		} else {
			psum += term
		}
	}
	return psum
}

func (legacyTCLe) Terms(a int32, w fixed.Width) []int64 {
	ts := bits.Booth(a, w)
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.Value()
	}
	return out
}

// legacyPairs couples each registered paper back-end with its test-only
// reference.
func legacyPairs() []struct {
	registered, legacy backend.Backend
} {
	return []struct {
		registered, legacy backend.Backend
	}{
		{arch.BitParallel.Impl(), legacyBitParallel{}},
		{arch.TCLp.Impl(), legacyTCLp{}},
		{arch.TCLe.Impl(), legacyTCLe{}},
	}
}

// TestRegisteredMatchesLegacyPrimitives pins Cost/MAC/Terms of every
// registered paper back-end to the legacy switch bodies over the full code
// space at both widths.
func TestRegisteredMatchesLegacyPrimitives(t *testing.T) {
	for _, pair := range legacyPairs() {
		for _, w := range []fixed.Width{fixed.W16, fixed.W8} {
			n := 1 << uint(w)
			for i := 0; i < n; i++ {
				v := fixed.SignExtend(uint32(i), w)
				if got, want := pair.registered.Cost(v, w), pair.legacy.Cost(v, w); got != want {
					t.Fatalf("%s: Cost(%d, %s) = %d, legacy %d", pair.registered.Name(), v, w, got, want)
				}
				if got, want := pair.registered.MAC(-321, v, w), pair.legacy.MAC(-321, v, w); got != want {
					t.Fatalf("%s: MAC(-321, %d, %s) = %d, legacy %d", pair.registered.Name(), v, w, got, want)
				}
				if v%17 == 0 {
					got, want := pair.registered.Terms(v, w), pair.legacy.Terms(v, w)
					if len(got) != len(want) {
						t.Fatalf("%s: Terms(%d, %s) len %d, legacy %d", pair.registered.Name(), v, w, len(got), len(want))
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%s: Terms(%d, %s)[%d] = %d, legacy %d", pair.registered.Name(), v, w, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// TestEngineMatchesLegacyBackends runs the full engine — schedules, cost
// planes, censuses, cycle accounting — once per (config, layer) with the
// registered back-end and once with its legacy switch-body twin, and
// requires the LayerResults to be bit-identical. This is the end-to-end pin
// that every figure and table output survived the refactor unchanged.
func TestEngineMatchesLegacyBackends(t *testing.T) {
	lws := []*nn.Lowered{
		testConv(t, 61, 18, 20, 3, 3, 6, 0.6, 0.4),
		testFC(t, 62, 20, 40, 18, 0.7),
	}
	patterns := []sched.Pattern{sched.T(2, 5), sched.L(1, 6), {}}
	for _, pair := range legacyPairs() {
		for _, p := range patterns {
			cfgs := []arch.Config{arch.NewTCLBackend(p, pair.registered)}
			if !pair.registered.Serial() && !cfgs[0].HasFrontEnd() {
				cfgs = append(cfgs, arch.DaDianNaoPP())
			}
			for _, cfg := range cfgs {
				legacyCfg := cfg
				legacyCfg.Backend = pair.legacy
				for _, lw := range lws {
					// Each run builds its own planes: a legacy twin keys
					// planes like its registered back-end, so a shared
					// plane cache would hand it the registered run's.
					got := simLayer(t, cfg, lw, Options{Parallelism: 2, PlaneCache: NewPlaneCache(0)})
					want := simLayer(t, legacyCfg, lw, Options{Parallelism: 2, PlaneCache: NewPlaneCache(0)})
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s on %s: registered result differs from legacy switch logic\nnew:    %+v\nlegacy: %+v",
							pair.registered.Name(), cfg.Name, lw.Name, got, want)
					}
					if err := ExecuteGolden(legacyCfg, lw); err != nil {
						t.Errorf("%s on %s: legacy golden model: %v", pair.legacy.Name(), lw.Name, err)
					}
					if err := ExecuteGolden(cfg, lw); err != nil {
						t.Errorf("%s on %s: golden model: %v", cfg.Name, lw.Name, err)
					}
				}
			}
		}
	}
}
