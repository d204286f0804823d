package energy

import (
	"testing"

	"bittactical/internal/arch"
	"bittactical/internal/fixed"
	"bittactical/internal/memory"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// The legacy pricers below transliterate the enum switches Price and AreaOf
// dispatched on before the backend registry, with the kind spelled as the
// back-end's registry name. The differential tests require exact float
// equality — the energy and area figures must be bit-identical across the
// refactor, not merely close.

func legacyPrice(cfg arch.Config, act sim.Activity, traffic memory.Traffic, tech memory.Tech, k Constants) Breakdown {
	k = k.scaleForWidth(int(cfg.Width))
	var b Breakdown
	b.LogicPJ += float64(act.ParallelMACs) * k.MultMAC16
	s := 1.0
	if cfg.Width < 16 {
		s = float64(cfg.Width) / 16.0
	}
	if cfg.Backend.Name() == "TCLe" {
		b.LogicPJ += float64(act.SerialLaneCycles) * (0.55 * s)
		b.LogicPJ += float64(act.OffsetEncodes) * (0.35 * s)
	} else if cfg.Backend.Name() == "TCLp" {
		b.LogicPJ += float64(act.SerialLaneCycles) * (0.26 * s)
	}
	b.LogicPJ += float64(act.MuxSelects) * k.Mux

	bytesPerValue := float64(int(cfg.Width)) / 8
	wsColumnBytes := float64(cfg.Lanes) * bytesPerValue
	b.OnChipPJ += float64(act.WSColumnReads) * wsColumnBytes * k.WSReadPerByte
	b.OnChipPJ += float64(act.ActReads) * bytesPerValue * k.ASReadPerByte
	b.OnChipPJ += float64(act.PsumAccesses) * k.PsumAccess

	b.OffChipPJ += float64(traffic.Total()) * tech.PJPerByte
	return b
}

func legacyAreaOf(cfg arch.Config) Area {
	a := Area{
		WeightMemory: 3.57,
		ActOutputBuf: 0.11,
		ActMemory:    54.25,
	}
	lanesTotal := float64(cfg.Tiles * cfg.FiltersPerTile * cfg.WindowsPerTile * cfg.Lanes)
	if cfg.Backend.Name() == "TCLe" {
		a.ComputeCore = lanesTotal * 0.001132
		a.Dispatcher = 0.37
		a.OffsetGen = 2.89
	} else if cfg.Backend.Name() == "TCLp" {
		a.ComputeCore = lanesTotal * 0.000552
		a.Dispatcher = 0.39
	} else {
		a.ComputeCore = lanesTotal * 0.003193
	}
	h := 0
	if cfg.HasFrontEnd() {
		h = cfg.Pattern.H
		if cfg.Pattern.Infinite {
			h = 15
		}
	}
	a.ActInputBuffer = 0.085 * float64(h+1)
	if cfg.HasFrontEnd() {
		wires := 1.0
		if cfg.Backend.Name() == "TCLe" {
			wires = 4.0
		}
		if cfg.Backend.Name() == "bit-parallel" {
			wires = 16.0
		}
		a.ActSelectUnit = 0.0094 * float64(cfg.Tiles) * float64(h+1) * wires
		a.ComputeCore += 0.45e-4 * lanesTotal * float64(cfg.Pattern.MuxInputs()) / 8 * wires / 4
	}
	return a
}

func legacyConfigs() []arch.Config {
	cfgs := []arch.Config{
		arch.DaDianNaoPP(),
		arch.FrontEndOnly(sched.T(2, 5)),
		arch.FrontEndOnly(sched.X()),
	}
	for _, tcl := range []func(sched.Pattern) arch.Config{arch.TCLp, arch.TCLe} {
		for _, p := range []sched.Pattern{sched.T(2, 5), sched.L(1, 6), sched.L(4, 3), {}} {
			cfgs = append(cfgs, tcl(p))
			cfgs = append(cfgs, tcl(p).WithWidth(fixed.W8))
		}
	}
	return cfgs
}

// TestPriceMatchesLegacySwitch pins the coefficient-driven Price to the old
// enum-switch pricing, bit for bit, across the design family and widths.
func TestPriceMatchesLegacySwitch(t *testing.T) {
	k := Defaults65nm()
	tech, _ := memory.TechByName("LPDDR4-3200")
	act := sim.Activity{
		SerialLaneCycles: 123457, ParallelMACs: 7701, WSColumnReads: 991,
		ActReads: 40404, MuxSelects: 5055, PsumAccesses: 2021, OffsetEncodes: 3103,
	}
	tr := memory.Traffic{WeightBytes: 1 << 17, ActInBytes: 1 << 16, ActOutBytes: 1 << 14}
	for _, cfg := range legacyConfigs() {
		got := Price(cfg, act, tr, tech, k)
		want := legacyPrice(cfg, act, tr, tech, k)
		if got != want {
			t.Errorf("%s: Price = %+v, legacy switch gives %+v", cfg.Name, got, want)
		}
	}
}

// TestAreaMatchesLegacySwitch pins AreaOf to the old enum-switch
// accounting, bit for bit.
func TestAreaMatchesLegacySwitch(t *testing.T) {
	for _, cfg := range legacyConfigs() {
		got := AreaOf(cfg)
		want := legacyAreaOf(cfg)
		if got != want {
			t.Errorf("%s: AreaOf = %+v, legacy switch gives %+v", cfg.Name, got, want)
		}
	}
}
