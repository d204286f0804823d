// Package memory models Bit-Tactical's memory system: the off-chip
// technologies of Figure 10, the off-chip compression the paper applies to
// all layers (zero compression + fine-grain per-group precision, Section 6),
// the TCL schedule metadata stream, and per-layer traffic accounting used by
// both the bandwidth-bound timing of Figure 10 and the energy model of
// Figure 8c.
package memory

import (
	"sort"

	"bittactical/internal/arch"
	"bittactical/internal/bits"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sched"
	"bittactical/internal/sim"
)

// Tech is one off-chip memory configuration.
type Tech struct {
	Name string
	// GBs is sustained bandwidth in GB/s; 0 means infinite.
	GBs float64
	// PJPerByte is transfer energy including I/O.
	PJPerByte float64
}

// Infinite reports whether the tech imposes no bandwidth bound.
func (t Tech) Infinite() bool { return t.GBs <= 0 }

// BytesPerCycle returns bytes deliverable per cycle at freqGHz.
func (t Tech) BytesPerCycle(freqGHz float64) float64 {
	if t.Infinite() {
		return 0
	}
	return t.GBs / freqGHz
}

// Techs lists the Figure 10 sweep, weakest first (JEDEC LPDDR3/LPDDR4/
// LPDDR4X and HBM configurations, then the infinite-bandwidth reference).
var Techs = []Tech{
	{Name: "LPDDR3-1600", GBs: 12.8, PJPerByte: 130},
	{Name: "LPDDR4-3200", GBs: 25.6, PJPerByte: 90},
	{Name: "LPDDR4X-4266", GBs: 34.1, PJPerByte: 70},
	{Name: "2xLPDDR4-3200", GBs: 51.2, PJPerByte: 90},
	{Name: "HBM", GBs: 128, PJPerByte: 35},
	{Name: "infinite", GBs: 0, PJPerByte: 90},
}

// TechByName resolves a Figure 10 label.
func TechByName(name string) (Tech, bool) {
	for _, t := range Techs {
		if t.Name == name {
			return t, true
		}
	}
	return Tech{}, false
}

// compressGroupBits returns the compressed size in bits of one group of up
// to 16 values under the paper's scheme: a 16-bit zero mask, a 5-bit window
// width, a 4-bit window shift, and the non-zero values at the group's
// dynamic precision plus a sign bit (trimmed magnitudes are sign-magnitude
// coded). The compress package implements the actual bitstream; a test
// asserts the two agree bit-for-bit.
func compressGroupBits(vs []int32, w fixed.Width) int64 {
	nnz := 0
	for _, v := range vs {
		if v != 0 {
			nnz++
		}
	}
	maskBits := int64(len(vs))
	if nnz == 0 {
		return maskBits + 5
	}
	p := bits.GroupPrecision(vs, w)
	per := int64(p.Hi - p.Lo + 1 + 1) // magnitude window + sign
	return maskBits + 5 + 4 + int64(nnz)*per
}

// CompressedBits returns the compressed footprint of a code stream in
// groups of 16.
func CompressedBits(vs []int32, w fixed.Width) int64 {
	var total int64
	for i := 0; i < len(vs); i += 16 {
		j := i + 16
		if j > len(vs) {
			j = len(vs)
		}
		total += compressGroupBits(vs[i:j], w)
	}
	return total
}

// MetadataBits returns the raw TCL schedule-select stream footprint for one
// filter's schedule: per weight-lane slot a mux select of
// ceil(log2(muxInputs)) bits, plus a per-column ALC field.
func MetadataBits(s *sched.Schedule, p sched.Pattern) int64 {
	if len(s.Columns) == 0 {
		return 0
	}
	selBits := int64(ceilLog2(p.MuxInputs()))
	alcBits := int64(ceilLog2(p.H + 2))
	if alcBits < 1 {
		alcBits = 1
	}
	return int64(len(s.Columns)) * (int64(s.Lanes)*selBits + alcBits)
}

// SSMetadataBits returns the schedule stream footprint under the Section
// 5.4 reduced-overhead front-end: a 4-bit schedule-select (SS) field per
// column of 16 weights indexes a table of 16 ws-vectors. Columns whose
// ws-vector falls outside the table fall back to the raw encoding (the
// paper profiles ≈96% coverage on GoogLeNet-ES). The table itself is
// provided "at an appropriate granularity such as per filter or per layer"
// (Section 5.4); LayerTraffic charges it once per layer.
func SSMetadataBits(s *sched.Schedule, p sched.Pattern) int64 {
	if len(s.Columns) == 0 {
		return 0
	}
	selBits := ceilLog2(p.MuxInputs())
	alcBits := ceilLog2(p.H + 2)
	if alcBits < 1 {
		alcBits = 1
	}
	covered := int(SSCoveredColumns(s, p))
	ssBits := int64(covered) * int64(4+alcBits)
	rawBits := int64(len(s.Columns)-covered) * int64(s.Lanes*selBits+alcBits+4)
	return ssBits + rawBits
}

// SSTableBits is the one-off per-layer footprint of the SS mapping table.
func SSTableBits(p sched.Pattern, lanes int) int64 {
	return int64(16 * lanes * ceilLog2(p.MuxInputs()))
}

// SSCoveredColumns counts the schedule columns whose mux-select vector
// under the pattern is one of the 16 most frequent — the columns a 4-bit
// schedule-select field can encode (Section 5.4).
func SSCoveredColumns(s *sched.Schedule, p sched.Pattern) int64 {
	counts := map[string]int{}
	for _, col := range s.Columns {
		counts[wsKey(col, p, s.Lanes)]++
	}
	if len(counts) <= 16 {
		return int64(len(s.Columns))
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	covered := 0
	for _, c := range freqs[:16] {
		covered += c
	}
	return int64(covered)
}

// wsKey canonicalizes a column's mux-select vector, the §5.4 ws-vector: one
// byte per lane, its select (at most 65 inputs) or 0xFF for an idle lane.
// Scheduler output gives every effectual lane an input, so ok is not read.
func wsKey(col sched.Column, p sched.Pattern, lanes int) string {
	b := make([]byte, len(col.Entries))
	for ln, e := range col.Entries {
		b[ln] = 0xFF
		if e.Weight != 0 {
			sel, _ := p.Select(col.Head, ln, lanes, e.Src)
			b[ln] = byte(sel)
		}
	}
	return string(b)
}

func ceilLog2(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// Traffic is one layer's off-chip byte movement.
type Traffic struct {
	WeightBytes   int64
	MetadataBytes int64
	ActInBytes    int64
	ActOutBytes   int64
}

// Total sums all streams.
func (t Traffic) Total() int64 {
	return t.WeightBytes + t.MetadataBytes + t.ActInBytes + t.ActOutBytes
}

// Add accumulates another layer's traffic.
func (t *Traffic) Add(o Traffic) {
	t.WeightBytes += o.WeightBytes
	t.MetadataBytes += o.MetadataBytes
	t.ActInBytes += o.ActInBytes
	t.ActOutBytes += o.ActOutBytes
}

// LayerTraffic computes one layer's off-chip traffic under the
// configuration. The on-chip scratchpads are sized so each weight and
// activation is read from DRAM at most once per layer (Section 5.3, after
// Siu et al.); output activations are written once at the input stream's
// measured compression rate. TCL configurations additionally stream the
// schedule metadata in the Section 5.4 schedule-select encoding, priced
// from the schedules the engine runs (sim.LayerSchedules, through the
// shared schedule cache); the dense baseline streams raw (still
// compressed) weights.
//
// Like the engine, it requires a config that validates; it panics
// otherwise.
func LayerTraffic(cfg arch.Config, lw *nn.Lowered) Traffic {
	var t Traffic
	l := lw.Layer()
	w := cfg.Width

	// Weights: compressed once.
	t.WeightBytes = (CompressedBits(l.Weights.Data, w) + 7) / 8

	// Schedule metadata for front-end configs: one schedule per filter.
	if cfg.HasFrontEnd() && !cfg.Pattern.Infinite {
		var bitsTotal int64
		err := sim.LayerSchedules(cfg, lw, func(_ int, _ []sched.Filter, schedules []*sched.Schedule) error {
			for _, s := range schedules {
				bitsTotal += SSMetadataBits(s, cfg.Pattern)
			}
			return nil
		})
		if err != nil {
			panic("memory: " + err.Error())
		}
		bitsTotal += SSTableBits(cfg.Pattern, lw.Lanes)
		t.MetadataBytes = (bitsTotal + 7) / 8
	}

	// Input activations: compressed, fetched once when the tile's
	// activation scratchpad holds the layer's working set (the Siu et al.
	// sizing the paper adopts), re-fetched per filter-group round when it
	// does not — the capacity cliff that makes on-chip memory "a more
	// energy efficient and thus higher performing choice" (Section 6.2).
	in := lw.Input()
	inBits := CompressedBits(in.Data, w)
	t.ActInBytes = (inBits + 7) / 8
	if cfg.ASBytesPerTile > 0 && t.ActInBytes > int64(cfg.ASBytesPerTile) {
		groups := cfg.FilterGroups(lw.Filters)
		rounds := int64((groups + cfg.Tiles - 1) / cfg.Tiles)
		if rounds > 1 {
			t.ActInBytes *= rounds
		}
	}

	// Output activations: written once at the input stream's mean
	// compressed bits per value (the next layer's input distribution is the
	// same law).
	outElems := int64(lw.Filters) * int64(lw.WindowCount)
	meanBits := float64(inBits) / float64(len(in.Data))
	t.ActOutBytes = int64(meanBits*float64(outElems)+7) / 8
	return t
}

// MemCycles returns the cycles needed to move the traffic at the tech's
// bandwidth (0 for infinite).
func MemCycles(t Traffic, tech Tech, freqGHz float64) int64 {
	if tech.Infinite() {
		return 0
	}
	bpc := tech.BytesPerCycle(freqGHz)
	return int64(float64(t.Total())/bpc + 0.5)
}

// BoundedCycles overlaps compute with memory: a layer's time is the max of
// its compute cycles and its transfer cycles.
func BoundedCycles(compute int64, t Traffic, tech Tech, freqGHz float64) int64 {
	m := MemCycles(t, tech, freqGHz)
	if m > compute {
		return m
	}
	return compute
}
