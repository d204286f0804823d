package nn

import (
	"fmt"
	"sync"

	"bittactical/internal/sched"
	"bittactical/internal/tensor"
)

// Lowered is the accelerator-facing view of a compute layer: the layer's
// reduction is laid out over L weight lanes (input channels innermost,
// matching the paper's "16 weight and activation pairs, each from a
// different input channel") and Steps dense-schedule time steps. All
// front-end scheduling and back-end timing operate on this view.
//
// Dense-schedule coordinates: for Conv/FC the reduction element with channel
// c and kernel position (r,s) sits at
//
//	lane = c % L,  step = (r*S + s) * ceil(C/L) + c/L
//
// so a schedule column always draws its L activations from L distinct
// channels at one kernel offset. Positions with c >= C are channel padding:
// permanently ineffectual slots ("Padding" in Figure 9) that the scheduler
// may promote real weights into.
//
// For Depthwise the reduction is the R*S kernel alone:
//
//	lane = (r*S+s) % L,  step = (r*S+s) / L
//
// and the activation fetch depends on the filter (channel) index.
//
// A lowering memoizes what it derives from its tensors, ContentHash from
// the input and Memo from the weights, so neither may change after Lower.
type Lowered struct {
	Name    string
	Kind    Kind
	Lanes   int
	Steps   int
	Filters int
	// WindowCount is the number of weight-sharing output positions.
	WindowCount int

	layer *Layer
	in    *tensor.T
	// chanGroups = ceil(C/L) for conv/fc lowering.
	chanGroups int
	outW       int
	// folded marks shallow-input convolutions (C < Lanes, e.g. the RGB
	// first layer): the whole C×R×S reduction is linearized across lanes so
	// the datapath is not starved to C of its L lanes — the standard
	// first-layer mapping in the DaDianNao accelerator family.
	folded bool

	padOnce sync.Once
	pad     []bool

	hashOnce sync.Once
	h1, h2   uint64

	memo sched.Memo
}

// Lower produces the lowered view of layer l with its input activations.
// lanes is the number of weight lanes per PE (16 in all paper configs).
func Lower(l *Layer, in *tensor.T, lanes int) (*Lowered, error) {
	if !l.HasCompute() {
		return nil, fmt.Errorf("nn: cannot lower non-compute layer %s", l.Name)
	}
	if lanes <= 0 {
		return nil, fmt.Errorf("nn: lanes must be positive")
	}
	lw := &Lowered{
		Name:        l.Name,
		Kind:        l.Kind,
		Lanes:       lanes,
		Filters:     l.OutChannels(),
		WindowCount: l.Windows(),
		layer:       l,
		in:          in,
	}
	switch l.Kind {
	case Conv, FC:
		gc := l.C
		if l.Kind == Conv {
			gc = l.GroupChannels()
		}
		if l.Kind == Conv && gc < lanes {
			lw.folded = true
			lw.Steps = (gc*l.R*l.S + lanes - 1) / lanes
		} else {
			lw.chanGroups = (gc + lanes - 1) / lanes
			lw.Steps = l.R * l.S * lw.chanGroups
		}
	case Depthwise:
		lw.Steps = (l.R*l.S + lanes - 1) / lanes
	}
	if l.Kind != FC {
		_, lw.outW = l.OutDims()
	}
	return lw, nil
}

// Layer returns the underlying layer.
func (lw *Lowered) Layer() *Layer { return lw.layer }

// Input returns the input activation tensor the lowering reads.
func (lw *Lowered) Input() *tensor.T { return lw.in }

// coords resolves (step, lane) to (channel, r, s); ok=false for padding.
func (lw *Lowered) coords(step, lane int) (c, r, s int, ok bool) {
	l := lw.layer
	switch l.Kind {
	case Conv, FC:
		gc := l.C
		if l.Kind == Conv {
			gc = l.GroupChannels()
		}
		if lw.folded {
			// Linearized reduction: ρ walks (r, s) outer, c inner.
			rho := step*lw.Lanes + lane
			if rho >= gc*l.R*l.S {
				return 0, 0, 0, false
			}
			rs := rho / gc
			return rho % gc, rs / l.S, rs % l.S, true
		}
		rs := step / lw.chanGroups
		cg := step % lw.chanGroups
		c = cg*lw.Lanes + lane
		if c >= gc {
			return 0, 0, 0, false
		}
		return c, rs / l.S, rs % l.S, true
	case Depthwise:
		idx := step*lw.Lanes + lane
		if idx >= l.R*l.S {
			return 0, 0, 0, false
		}
		return 0, idx / l.S, idx % l.S, true
	default:
		panic("nn: coords on non-compute layer")
	}
}

// IsPad reports whether (step, lane) is a channel-padding slot in the dense
// schedule (always-zero, no weight or activation behind it).
func (lw *Lowered) IsPad(step, lane int) bool {
	_, _, _, ok := lw.coords(step, lane)
	return !ok
}

// PadMask returns the layer's channel-padding mask in dense-schedule
// layout (step*Lanes+lane), or nil when the layer has no padding. The mask
// is computed once and shared — every config sweeping the layer keys the
// same slots — so callers must treat it as read-only.
func (lw *Lowered) PadMask() []bool {
	lw.padOnce.Do(func() {
		any := false
		pad := make([]bool, lw.Steps*lw.Lanes)
		for st := 0; st < lw.Steps; st++ {
			for ln := 0; ln < lw.Lanes; ln++ {
				if lw.IsPad(st, ln) {
					pad[st*lw.Lanes+ln] = true
					any = true
				}
			}
		}
		if any {
			lw.pad = pad
		}
	})
	return lw.pad
}

// ContentHash returns two independent 64-bit hashes (FNV-1a and a djb2
// variant) over everything Act reads: the lowering geometry, the layer
// parameters the coords/Act mapping consults, and the full input
// activation tensor. The simulator keys activation cost planes on it.
// Hashing a tensor is linear in its size and every sweep config of a run
// asks for it, so it is computed once per lowering and shared, like
// PadMask; the input tensor must not change after Lower.
func (lw *Lowered) ContentHash() (h1, h2 uint64) {
	lw.hashOnce.Do(func() { lw.h1, lw.h2 = contentHash(lw) })
	return lw.h1, lw.h2
}

// Memo returns the lowering's per-filter-group scheduling metadata: each
// group's schedule-cache key and front-end census, filled on the group's
// first touch by the simulator and read by every later pass, under any
// config that groups and schedules the filters the same way.
func (lw *Lowered) Memo() *sched.Memo { return &lw.memo }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// contentHash computes ContentHash without the memo.
func contentHash(lw *Lowered) (h1, h2 uint64) {
	h1, h2 = fnvOffset, 5381
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h1 ^= uint64(byte(v >> (8 * i)))
			h1 *= fnvPrime
		}
		h2 = h2*33 + uint64(v) + (h2 >> 27)
	}
	l := lw.layer
	mix(int64(lw.Kind))
	mix(int64(lw.Lanes))
	mix(int64(lw.Steps))
	mix(int64(lw.WindowCount))
	mix(int64(l.C))
	mix(int64(l.R))
	mix(int64(l.S))
	mix(int64(l.Stride))
	mix(int64(l.Pad))
	mix(int64(l.Groups))
	for _, d := range lw.in.Shape {
		mix(int64(d))
	}
	for _, v := range lw.in.Data {
		mix(int64(v))
	}
	return h1, h2
}

// Weight returns the weight code of filter f at dense-schedule position
// (step, lane); padding slots return 0.
func (lw *Lowered) Weight(f, step, lane int) int32 {
	c, r, s, ok := lw.coords(step, lane)
	if !ok {
		return 0
	}
	if lw.Kind == Depthwise {
		return lw.layer.Weights.At(f, 0, r, s)
	}
	return lw.layer.Weights.At(f, c, r, s)
}

// FilterRow materializes filter f's dense schedule as a Steps×Lanes matrix
// (row-major), the input format the software scheduler consumes.
func (lw *Lowered) FilterRow(f int) []int32 {
	out := make([]int32, lw.Steps*lw.Lanes)
	lw.FilterRowInto(f, out)
	return out
}

// FilterRowInto is FilterRow into caller-provided storage of length
// Steps*Lanes, for engines that materialize many rows into a reused
// arena. It gathers the row by stride instead of resolving each slot
// through Weight: for each kernel offset (r, s) the filter's channels sit
// one channel stride apart in the KCRS weight tensor, and a row slot is
// step*Lanes + lane. Conv and FC rows take the channels in lane order, each
// kernel offset's ceil(C/L) steps padded past the group's channels;
// folded first layers lay the linearized reduction (r, s outer, channel
// inner) across consecutive slots; depthwise rows hold the kernel offsets
// in order. Every other slot is padding and reads 0.
func (lw *Lowered) FilterRowInto(f int, out []int32) {
	out = out[:lw.Steps*lw.Lanes]
	clear(out)
	l, w := lw.layer, lw.layer.Weights
	chanStride := w.Shape[2] * w.Shape[3]
	base := f * w.Shape[1] * chanStride
	// at is the weight-tensor index of channel 0 at kernel offset rs.
	at := func(rs int) int { return base + rs/l.S*w.Shape[3] + rs%l.S }
	switch l.Kind {
	case Conv, FC:
		gc := l.C
		if l.Kind == Conv {
			gc = l.GroupChannels()
		}
		// A kernel offset's channels start every rowLen slots.
		rowLen := lw.chanGroups * lw.Lanes
		if lw.folded {
			rowLen = gc
		}
		for rs := 0; rs < l.R*l.S; rs++ {
			src := at(rs)
			dst := out[rs*rowLen : rs*rowLen+gc]
			for c := range dst {
				dst[c] = w.Data[src+c*chanStride]
			}
		}
	case Depthwise:
		for rs := 0; rs < l.R*l.S; rs++ {
			out[rs] = w.Data[at(rs)]
		}
	default:
		panic("nn: filter row of a non-compute layer")
	}
}

// Act returns the activation code paired with dense-schedule position
// (step, lane) for output window win and filter f. The filter index matters
// only for Depthwise layers, whose activation fetch is per-channel.
// Out-of-image positions (spatial zero padding) and padding slots return 0.
func (lw *Lowered) Act(f, win, step, lane int) int32 {
	c, r, s, ok := lw.coords(step, lane)
	if !ok {
		return 0
	}
	l := lw.layer
	switch l.Kind {
	case FC:
		// A (1, C, 1, Timesteps) input carries one vector per timestep;
		// a flattened feature tensor is replayed at every window.
		if lw.WindowCount > 1 && lw.in.Shape == (tensor.Shape{1, l.C, 1, lw.WindowCount}) {
			return lw.in.At(0, c, 0, win)
		}
		return lw.in.Data[c]
	case Conv:
		// Grouped convolutions offset the channel by the filter's group.
		if l.Groups > 1 {
			c += (f / (l.K / l.Groups)) * l.GroupChannels()
		}
		oy, ox := win/lw.outW, win%lw.outW
		return lw.in.AtPadded(0, c, oy*l.Stride+r-l.Pad, ox*l.Stride+s-l.Pad)
	case Depthwise:
		oy, ox := win/lw.outW, win%lw.outW
		return lw.in.AtPadded(0, f, oy*l.Stride+r-l.Pad, ox*l.Stride+s-l.Pad)
	default:
		panic("nn: act on non-compute layer")
	}
}

// ActGroups returns the number of distinct activation-fetch behaviors
// along the filter axis: Act(f, ·) is identical for every filter in one
// act group. Row-invariant layers (FC, ungrouped conv) are one group;
// a grouped convolution has one per filter group (the group selects the
// input-channel slice); depthwise has one per filter (the filter IS the
// channel). Together with ActGroupOf/ActGroupRep this is what lets the
// simulator precompute activation cost planes for row-VARIANT layers
// too: one plane per act group instead of one per layer.
func (lw *Lowered) ActGroups() int {
	switch lw.Kind {
	case Conv:
		if g := lw.layer.Groups; g > 1 {
			return g
		}
		return 1
	case Depthwise:
		return lw.Filters
	default:
		return 1
	}
}

// ActGroupOf returns the act group of filter f.
func (lw *Lowered) ActGroupOf(f int) int {
	switch lw.Kind {
	case Conv:
		if g := lw.layer.Groups; g > 1 {
			return f / (lw.layer.K / g)
		}
		return 0
	case Depthwise:
		return f
	default:
		return 0
	}
}

// ActGroupRep returns a representative filter index of act group g:
// Act(ActGroupRep(g), ·) equals Act(f, ·) for every f with
// ActGroupOf(f) == g.
func (lw *Lowered) ActGroupRep(g int) int {
	switch lw.Kind {
	case Conv:
		if gs := lw.layer.Groups; gs > 1 {
			return g * (lw.layer.K / gs)
		}
		return 0
	case Depthwise:
		return g
	default:
		return 0
	}
}

// ReferenceOutput computes filter f's dot product at window win directly
// from the lowering — the golden value simulator runs are checked against.
func (lw *Lowered) ReferenceOutput(f, win int) int64 {
	var sum int64
	for st := 0; st < lw.Steps; st++ {
		for ln := 0; ln < lw.Lanes; ln++ {
			w := lw.Weight(f, st, ln)
			if w == 0 {
				continue
			}
			sum += int64(w) * int64(lw.Act(f, win, st, ln))
		}
	}
	return sum
}
