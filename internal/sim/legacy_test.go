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
// executePsum) used to run for that kind, as a Cost and a MAC method. The
// differential tests below compare them with the registered back-ends'
// term streams, and run the full engine once with a registered back-end
// and once with its legacy twin, requiring bit-identical results — the pin
// that the refactors moved the semantics without changing them.

// legacyBackend is a legacy twin: the deleted switch arms' Cost and MAC,
// runnable by the engine through legacyTerms.
type legacyBackend interface {
	backend.Backend
	Cost(v int32, w fixed.Width) int
	MAC(wt, a int32, w fixed.Width) int64
}

// legacyTerms is a legacy twin's term stream: Cost(v) cycles, the first
// carrying MAC(1, v), so the engine's cost table reads the legacy cost and
// the golden model's Σ weight×factor the legacy product.
func legacyTerms(dst []int64, b legacyBackend, v int32, w fixed.Width) []int64 {
	if n := b.Cost(v, w); n > 0 {
		dst = append(dst, b.MAC(1, v, w))
		dst = append(dst, make([]int64, n-1)...)
	}
	return dst
}

type legacyBitParallel struct{}

func (legacyBitParallel) Name() string                         { return "legacy-bit-parallel" }
func (legacyBitParallel) Serial() bool                         { return false }
func (legacyBitParallel) OffsetEncoder() bool                  { return false }
func (legacyBitParallel) Energy() backend.EnergyCoeffs         { return backend.EnergyCoeffs{} }
func (legacyBitParallel) Area() backend.AreaCoeffs             { return backend.AreaCoeffs{} }
func (legacyBitParallel) Cost(v int32, w fixed.Width) int      { return 1 }
func (legacyBitParallel) MAC(wt, a int32, w fixed.Width) int64 { return int64(wt) * int64(a) }
func (b legacyBitParallel) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	return legacyTerms(dst, b, v, w)
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

func (b legacyTCLp) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	return legacyTerms(dst, b, v, w)
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

// MAC shift-adds one signed term per digit of the canonical signed-digit
// (Booth) recoding, scanned from the LSB as the deleted term list was
// built.
func (legacyTCLe) MAC(wt, a int32, w fixed.Width) int64 {
	var psum int64
	x := int64(a)
	for i := 0; x != 0; i++ {
		if x&1 == 1 {
			if x&3 == 3 {
				psum -= int64(wt) << uint(i)
				x++
			} else {
				psum += int64(wt) << uint(i)
				x--
			}
		}
		x >>= 1
	}
	return psum
}

func (b legacyTCLe) Terms(dst []int64, v int32, w fixed.Width) []int64 {
	return legacyTerms(dst, b, v, w)
}

// legacyPairs couples each registered paper back-end with its test-only
// reference.
func legacyPairs() []struct {
	registered backend.Backend
	legacy     legacyBackend
} {
	return []struct {
		registered backend.Backend
		legacy     legacyBackend
	}{
		{backend.MustLookup("bit-parallel"), legacyBitParallel{}},
		{backend.MustLookup("TCLp"), legacyTCLp{}},
		{backend.MustLookup("TCLe"), legacyTCLe{}},
	}
}

// TestRegisteredMatchesLegacyPrimitives pins every registered paper
// back-end's term stream to the legacy switch bodies over the full code
// space at both widths: its length to the legacy Cost, and Σ −321×factor
// to the legacy MAC(−321, v).
func TestRegisteredMatchesLegacyPrimitives(t *testing.T) {
	var terms []int64
	for _, pair := range legacyPairs() {
		for _, w := range []fixed.Width{fixed.W16, fixed.W8} {
			n := 1 << uint(w)
			for i := 0; i < n; i++ {
				v := fixed.SignExtend(uint32(i), w)
				terms = pair.registered.Terms(terms[:0], v, w)
				if got, want := len(terms), pair.legacy.Cost(v, w); got != want {
					t.Fatalf("%s: len(Terms(%d, %s)) = %d, legacy Cost %d", pair.registered.Name(), v, w, got, want)
				}
				var mac int64
				for _, f := range terms {
					mac += -321 * f
				}
				if want := pair.legacy.MAC(-321, v, w); mac != want {
					t.Fatalf("%s: Σ −321×Terms(%d, %s) = %d, legacy MAC %d", pair.registered.Name(), v, w, mac, want)
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
			cfgs := []arch.Config{arch.NewTCL(p, pair.registered)}
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
