// Package nn models the neural networks Bit-Tactical accelerates: layer
// types, the "lowered" GEMM view that maps a layer onto the accelerator's
// weight lanes and schedule steps, and the workload registry with the seven
// networks of the paper's evaluation. Each layer's input activations are
// sampled from the model's calibrated activation law (Model.GenerateActs),
// not produced by a forward pass. The golden value an accelerator
// simulation is checked against is Lowered.ReferenceOutput, the lowering's
// direct dot product, which sim.ExecuteGolden compares the modeled
// datapath with.
package nn

import (
	"fmt"

	"bittactical/internal/sparsity"
	"bittactical/internal/tensor"
)

// Kind enumerates the layer types the paper's workloads use.
type Kind int

const (
	// Conv is a standard convolution: K filters over C channels, R×S kernel.
	Conv Kind = iota
	// Depthwise is a depthwise convolution (MobileNet): one R×S kernel per
	// channel, no cross-channel reduction. The paper notes TCL's adder-tree
	// CEs are underutilized here because activations are not reused across
	// filters (Section 5.3).
	Depthwise
	// FC is a fully-connected layer; Windows > 1 models timesteps (LSTM) or
	// batched vectors that reuse the same weights.
	FC
	// MaxPool and AvgPool perform no MACs; the paper states TCL matches the
	// bit-parallel baseline for pooling, so they are timing-neutral.
	MaxPool
	AvgPool
)

func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Depthwise:
		return "dwconv"
	case FC:
		return "fc"
	case MaxPool:
		return "maxpool"
	case AvgPool:
		return "avgpool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer describes one layer of a network, with its input dimensions
// resolved by the model builder.
type Layer struct {
	Name string
	Kind Kind

	// K is the number of filters (output channels). For Depthwise, K == C.
	K int
	// C is the number of input channels.
	C int
	// R, S are the kernel height and width (1 for FC).
	R, S int
	// Stride and Pad apply to Conv/Depthwise/pool layers.
	Stride, Pad int
	// Groups splits a Conv into independent channel groups (AlexNet's
	// grouped convolutions); 0 or 1 means a standard convolution. Filters
	// are split evenly: filter k reads channels [g·C/Groups, (g+1)·C/Groups)
	// with g = k / (K/Groups).
	Groups int

	// InH, InW are the input spatial dimensions (1 for FC).
	InH, InW int
	// Timesteps is the number of weight-sharing input vectors for FC layers
	// (e.g. LSTM gate projections applied at every timestep). Zero means 1.
	Timesteps int

	// Weights holds the fixed-point weight codes: shape (K, C, R, S) for
	// Conv/FC, (C, 1, R, S) for Depthwise, nil for pools.
	Weights *tensor.T

	// WFrac and AFrac are the fractional-bit counts of the weight codes and
	// of this layer's *input* activation codes.
	WFrac, AFrac int

	// Act overrides the model-default activation distribution for this
	// layer's *input* tensor (nil = use Model.Act). Attention workloads use
	// it to feed softmax-shaped probability rows into attention×V layers
	// while the rest of the block sees the model's GELU-shaped law.
	Act sparsity.ActivationModel
}

// OutDims returns the output spatial dimensions.
func (l *Layer) OutDims() (h, w int) {
	switch l.Kind {
	case FC:
		return 1, 1
	case Conv, Depthwise, MaxPool, AvgPool:
		h = (l.InH+2*l.Pad-l.R)/l.Stride + 1
		w = (l.InW+2*l.Pad-l.S)/l.Stride + 1
		return h, w
	default:
		panic("nn: unknown layer kind")
	}
}

// OutChannels returns the number of output channels.
func (l *Layer) OutChannels() int {
	switch l.Kind {
	case MaxPool, AvgPool:
		return l.C
	default:
		return l.K
	}
}

// Windows returns the number of output positions that share weights: spatial
// positions for convolutions, timesteps for FC layers.
func (l *Layer) Windows() int {
	switch l.Kind {
	case FC:
		if l.Timesteps > 1 {
			return l.Timesteps
		}
		return 1
	default:
		h, w := l.OutDims()
		return h * w
	}
}

// groups returns the effective group count.
func (l *Layer) groups() int {
	if l.Groups > 1 {
		return l.Groups
	}
	return 1
}

// GroupChannels returns the channels each filter reduces over.
func (l *Layer) GroupChannels() int { return l.C / l.groups() }

// Reduction returns the length of the dot-product each output value needs:
// C/Groups*R*S for Conv, R*S for Depthwise, C for FC, 0 for pools.
func (l *Layer) Reduction() int {
	switch l.Kind {
	case Conv:
		return l.GroupChannels() * l.R * l.S
	case Depthwise:
		return l.R * l.S
	case FC:
		return l.C
	default:
		return 0
	}
}

// MACs returns the number of multiply-accumulate operations in the layer's
// dense (unpruned, value-agnostic) execution.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv, FC:
		return int64(l.K) * int64(l.Reduction()) * int64(l.Windows())
	case Depthwise:
		return int64(l.C) * int64(l.R*l.S) * int64(l.Windows())
	default:
		return 0
	}
}

// HasCompute reports whether the layer performs MACs (is visible to the
// accelerators' timing models).
func (l *Layer) HasCompute() bool { return l.Kind == Conv || l.Kind == Depthwise || l.Kind == FC }

// Validate checks internal consistency, returning a descriptive error.
func (l *Layer) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("nn: layer has no name")
	}
	switch l.Kind {
	case Conv:
		if l.Groups > 1 && (l.C%l.Groups != 0 || l.K%l.Groups != 0) {
			return fmt.Errorf("nn: %s: groups %d must divide C=%d and K=%d", l.Name, l.Groups, l.C, l.K)
		}
		if l.Weights == nil || l.Weights.Shape != (tensor.Shape{l.K, l.GroupChannels(), l.R, l.S}) {
			return fmt.Errorf("nn: %s: conv weights shape mismatch", l.Name)
		}
	case Depthwise:
		if l.K != l.C {
			return fmt.Errorf("nn: %s: depthwise needs K==C", l.Name)
		}
		if l.Weights == nil || l.Weights.Shape != (tensor.Shape{l.C, 1, l.R, l.S}) {
			return fmt.Errorf("nn: %s: depthwise weights shape mismatch", l.Name)
		}
	case FC:
		if l.Weights == nil || l.Weights.Shape != (tensor.Shape{l.K, l.C, 1, 1}) {
			return fmt.Errorf("nn: %s: fc weights shape mismatch", l.Name)
		}
	case MaxPool, AvgPool:
		if l.Weights != nil {
			return fmt.Errorf("nn: %s: pool layers carry no weights", l.Name)
		}
	}
	if l.Kind != FC {
		if l.Stride <= 0 {
			return fmt.Errorf("nn: %s: stride must be positive", l.Name)
		}
		if h, w := l.OutDims(); h <= 0 || w <= 0 {
			return fmt.Errorf("nn: %s: non-positive output dims", l.Name)
		}
	}
	return nil
}
