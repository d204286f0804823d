package nn

import (
	"fmt"

	"bittactical/internal/fixed"
	"bittactical/internal/tensor"
)

// Network is an ordered pipeline of layers with resolved shapes.
type Network struct {
	Name  string
	Width fixed.Width
	// InC, InH, InW describe the network input.
	InC, InH, InW int
	Layers        []*Layer
}

// NewNetwork creates an empty network with the given input shape.
func NewNetwork(name string, w fixed.Width, inC, inH, inW int) *Network {
	return &Network{Name: name, Width: w, InC: inC, InH: inH, InW: inW}
}

// Add appends a layer, resolving its input dimensions from the pipeline so
// far, and returns the layer for further configuration. It panics on
// inconsistent shapes — zoo construction bugs, not runtime conditions.
func (n *Network) Add(l *Layer) *Layer {
	c, h, w := n.outShape()
	switch l.Kind {
	case FC:
		// FC consumes the flattened previous output unless C already set to
		// a timestep feature size by the caller.
		if l.C == 0 {
			l.C = c * h * w
		}
		l.InH, l.InW = 1, 1
	default:
		if l.C == 0 {
			l.C = c
		} else if l.C != c && len(n.Layers) > 0 {
			panic(fmt.Sprintf("nn: %s: channel mismatch: layer wants %d, pipeline provides %d", l.Name, l.C, c))
		}
		l.InH, l.InW = h, w
	}
	if l.Kind == Depthwise {
		l.K = l.C
	}
	n.Layers = append(n.Layers, l)
	return l
}

// outShape returns the (C, H, W) produced by the last layer, or the network
// input if no layers exist yet.
func (n *Network) outShape() (c, h, w int) {
	if len(n.Layers) == 0 {
		return n.InC, n.InH, n.InW
	}
	last := n.Layers[len(n.Layers)-1]
	if last.Kind == FC {
		return last.K, 1, 1
	}
	h, w = last.OutDims()
	return last.OutChannels(), h, w
}

// Validate checks every layer.
func (n *Network) Validate() error {
	for _, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalMACs sums dense MACs over all compute layers.
func (n *Network) TotalMACs() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.MACs()
	}
	return total
}

// WeightSparsity returns the MAC-weighted fraction of zero weights across
// compute layers (the paper's headline "45%–87% sparse" metric).
func (n *Network) WeightSparsity() float64 {
	var zero, total float64
	for _, l := range n.Layers {
		if !l.HasCompute() {
			continue
		}
		reuse := float64(l.Windows())
		e := float64(l.Weights.Shape.Elems())
		total += e * reuse
		zero += e * reuse * l.Weights.Sparsity()
	}
	if total == 0 {
		return 0
	}
	return zero / total
}

// Forward runs the fixed-point reference forward pass on input (shape
// (1, InC, InH, InW)) and returns the per-layer *input* activation tensors:
// out[i] is what layer i consumes. Each compute layer's output is ReLU'd
// and requantized to the network width with a fresh fractional scale
// (range-oblivious per-layer linear quantization, Section 6.5), recorded in
// the consumer layer's AFrac.
//
// FC layers with Timesteps > 1 are fed the same vector at every timestep for
// reference purposes; timing simulations substitute per-timestep streams.
func (n *Network) Forward(input *tensor.T) ([]*tensor.T, error) {
	if input.Shape != (tensor.Shape{1, n.InC, n.InH, n.InW}) {
		return nil, fmt.Errorf("nn: %s: input shape %v, want 1x%dx%dx%d",
			n.Name, input.Shape, n.InC, n.InH, n.InW)
	}
	ins := make([]*tensor.T, len(n.Layers))
	cur := input
	curFrac := 8 // input activations arrive at a mid-range scale
	for i, l := range n.Layers {
		l.AFrac = curFrac
		// FC layers flatten whatever spatial shape precedes them.
		if l.Kind == FC && cur.Shape.Elems() != l.C {
			return nil, fmt.Errorf("nn: %s: fc input has %d elems, want %d", l.Name, cur.Shape.Elems(), l.C)
		}
		ins[i] = cur
		out, outFrac := forwardLayer(l, cur, curFrac, n.Width)
		cur, curFrac = out, outFrac
	}
	return ins, nil
}

// forwardLayer computes one layer on codes at inFrac, returning output codes
// and their fractional scale.
func forwardLayer(l *Layer, in *tensor.T, inFrac int, w fixed.Width) (*tensor.T, int) {
	switch l.Kind {
	case Conv:
		return convForward(l, in, inFrac, w, false)
	case Depthwise:
		return convForward(l, in, inFrac, w, true)
	case FC:
		return fcForward(l, in, inFrac, w)
	case MaxPool:
		return poolForward(l, in, true), inFrac
	case AvgPool:
		return poolForward(l, in, false), inFrac
	default:
		panic("nn: unknown layer kind")
	}
}

func convForward(l *Layer, in *tensor.T, inFrac int, w fixed.Width, depthwise bool) (*tensor.T, int) {
	oh, ow := l.OutDims()
	acc := make([]int64, l.OutChannels()*oh*ow)
	idx := 0
	for k := 0; k < l.OutChannels(); k++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum int64
				for r := 0; r < l.R; r++ {
					iy := oy*l.Stride + r - l.Pad
					if iy < 0 || iy >= l.InH {
						continue
					}
					for s := 0; s < l.S; s++ {
						ix := ox*l.Stride + s - l.Pad
						if ix < 0 || ix >= l.InW {
							continue
						}
						if depthwise {
							sum += int64(l.Weights.At(k, 0, r, s)) * int64(in.At(0, k, iy, ix))
						} else {
							gc := l.GroupChannels()
							off := 0
							if l.Groups > 1 {
								off = (k / (l.K / l.Groups)) * gc
							}
							for c := 0; c < gc; c++ {
								sum += int64(l.Weights.At(k, c, r, s)) * int64(in.At(0, off+c, iy, ix))
							}
						}
					}
				}
				acc[idx] = sum
				idx++
			}
		}
	}
	return requantizeReLU(acc, l.OutChannels(), oh, ow, inFrac+l.WFrac, w)
}

func fcForward(l *Layer, in *tensor.T, inFrac int, w fixed.Width) (*tensor.T, int) {
	acc := make([]int64, l.K)
	for k := 0; k < l.K; k++ {
		var sum int64
		for c := 0; c < l.C; c++ {
			sum += int64(l.Weights.At(k, c, 0, 0)) * int64(in.Data[c])
		}
		acc[k] = sum
	}
	return requantizeReLU(acc, l.K, 1, 1, inFrac+l.WFrac, w)
}

// requantizeReLU applies ReLU to the wide accumulators, picks the largest
// output scale that avoids saturation, and narrows to width w.
func requantizeReLU(acc []int64, c, h, wd int, accFrac int, w fixed.Width) (*tensor.T, int) {
	var maxAbs int64
	for i, v := range acc {
		if v < 0 {
			acc[i] = 0 // ReLU
			v = 0
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	// Choose outFrac so maxAbs >> (accFrac-outFrac) fits in width w.
	outFrac := accFrac
	for maxAbs>>uint(accFrac-outFrac) > int64(w.MaxInt()) {
		outFrac--
	}
	out := tensor.New(1, c, h, wd)
	shift := accFrac - outFrac
	for i, v := range acc {
		out.Data[i] = fixed.RequantizeProduct(v, shift, w)
	}
	return out, outFrac
}

func poolForward(l *Layer, in *tensor.T, isMax bool) *tensor.T {
	oh, ow := l.OutDims()
	out := tensor.New(1, l.C, oh, ow)
	for c := 0; c < l.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var best int32
				var sum, count int64
				first := true
				for r := 0; r < l.R; r++ {
					iy := oy*l.Stride + r - l.Pad
					if iy < 0 || iy >= l.InH {
						continue
					}
					for s := 0; s < l.S; s++ {
						ix := ox*l.Stride + s - l.Pad
						if ix < 0 || ix >= l.InW {
							continue
						}
						v := in.At(0, c, iy, ix)
						if first || v > best {
							best = v
						}
						first = false
						sum += int64(v)
						count++
					}
				}
				if isMax {
					out.Set(0, c, oy, ox, best)
				} else if count > 0 {
					out.Set(0, c, oy, ox, int32(sum/count))
				}
			}
		}
	}
	return out
}
