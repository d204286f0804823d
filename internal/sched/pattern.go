// Package sched implements Bit-Tactical's software scheduling middleware —
// the paper's primary contribution. Given a filter's dense schedule (weights
// laid out over L lanes × T steps), the scheduler statically plans weight
// "promotions" that skip ineffectual (zero) weight slots, constrained by a
// hardware connectivity pattern:
//
//   - lookahead: a weight moves earlier in time within its own lane
//     (offset (dt, 0), 1 ≤ dt ≤ h);
//   - lookaside: a weight moves to another lane of the same adder tree
//     (offset (dt, dl), dl ≠ 0).
//
// The hardware realizes a promotion with an (h+d+1)-input activation
// multiplexer per lane (Section 3); the scheduler emits the per-weight mux
// select and the per-column activation-lane-control (ALC) window advance.
package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Offset is one promotion edge of the connectivity pattern: a weight at
// dense-schedule position (t+Dt, lane+Dl mod L) may execute on `lane` at
// window head t. Dt ≥ 1 always; Dl == 0 is lookahead, Dl != 0 lookaside.
type Offset struct {
	Dt int // steps ahead in the dense schedule
	Dl int // lane displacement (wraps mod L)
}

// Pattern is a front-end connectivity configuration.
type Pattern struct {
	// Name is the paper's label, e.g. "T8<2,5>".
	Name string
	// H is the lookahead window depth: the ASU buffers steps [t, t+H].
	H int
	// D is the number of lookaside edges (for labeling; == count of Dl!=0).
	D int
	// Offsets are the promotion edges, excluding the implicit (0,0) "stay".
	Offsets []Offset
	// Infinite marks the impractical X<inf,15> upper bound: any weight may
	// move anywhere within the filter.
	Infinite bool
}

// MuxInputs returns the per-lane activation multiplexer width the pattern
// needs: one input per offset plus the dense "stay" input.
func (p Pattern) MuxInputs() int { return len(p.Offsets) + 1 }

// Select is the one mapping from a schedule entry's source to the mux input
// that feeds it, the ws select of the paper's WS column (Section 5.1). For a
// lane of a lanes-wide column at window head head, source position src
// (Entry.Src, step*lanes + lane) is input 0, the dense "stay" input, when it
// is the lane's own slot at the head, and input i+1 when Offsets[i] reaches
// it; offsets that coincide mod lanes resolve to the first. ok is false when
// no input reaches src, as for every promotion under X<inf,15>, which has no
// mux.
func (p Pattern) Select(head, lane, lanes int, src int32) (sel int, ok bool) {
	pos := int(src)
	if pos == head*lanes+lane {
		return 0, true
	}
	for i, o := range p.Offsets {
		if pos == (head+o.Dt)*lanes+wrapLane(lane+o.Dl, lanes) {
			return i + 1, true
		}
	}
	return 0, false
}

// LookaheadOnly returns a copy of the pattern with all lookaside edges
// removed (the bottom segments of Figure 8a).
func (p Pattern) LookaheadOnly() Pattern {
	q := Pattern{Name: p.Name + "-la", H: p.H, Infinite: p.Infinite}
	for _, o := range p.Offsets {
		if o.Dl == 0 {
			q.Offsets = append(q.Offsets, o)
		}
	}
	return q
}

// Validate checks structural sanity, including the bound of 64 offsets
// (maxKernelOffsets, a 65-input mux) the scheduling kernel supports; the
// paper's designs use at most 15.
func (p Pattern) Validate() error {
	if p.Infinite {
		return nil
	}
	if len(p.Offsets) > maxKernelOffsets {
		return fmt.Errorf("sched: %s: %d offsets exceed the bound of %d (a %d-input mux)",
			p.Name, len(p.Offsets), maxKernelOffsets, maxKernelOffsets+1)
	}
	seen := map[Offset]bool{}
	for _, o := range p.Offsets {
		if o.Dt < 1 {
			return fmt.Errorf("sched: %s: offset %+v has Dt < 1 (promotions move earlier only)", p.Name, o)
		}
		if o.Dt > p.H {
			return fmt.Errorf("sched: %s: offset %+v exceeds lookahead depth %d", p.Name, o, p.H)
		}
		if seen[o] {
			return fmt.Errorf("sched: %s: duplicate offset %+v", p.Name, o)
		}
		seen[o] = true
	}
	return nil
}

// L returns the contiguous pattern L<h,d> of Figure 3a: lookahead
// (1,0)…(h,0) plus lookaside to the d neighboring lanes one step ahead.
// The lane direction follows the paper's Figure 2, where lane 2 steals
// w¹₁ from lane 1: a lane reaches the d lanes below it (wrapping mod L).
// It has h+d offsets; Validate rejects h+d > 64.
func L(h, d int) Pattern {
	p := Pattern{Name: fmt.Sprintf("L%d<%d,%d>", h+d+1, h, d), H: h, D: d}
	for k := 1; k <= h; k++ {
		p.Offsets = append(p.Offsets, Offset{Dt: k})
	}
	for j := 1; j <= d; j++ {
		p.Offsets = append(p.Offsets, Offset{Dt: 1, Dl: -j})
	}
	return p
}

// T returns the sparse trident pattern T<h,d> of Figure 3b: lookahead
// (1,0)…(h,0) plus d lookaside prongs with alternating sign and widening
// stride, spread over the lookahead depth so neighboring lanes' search
// windows overlap less (the property Section 3.1 credits for the Trident's
// edge over the L shape). The exact prong geometry is shown only pictorially
// in the paper; DESIGN.md §7 documents this reconstruction. It has h+d
// offsets; Validate rejects h+d > 64.
func T(h, d int) Pattern {
	p := Pattern{Name: fmt.Sprintf("T%d<%d,%d>", h+d+1, h, d), H: h, D: d}
	for k := 1; k <= h; k++ {
		p.Offsets = append(p.Offsets, Offset{Dt: k})
	}
	for i := 0; i < d; i++ {
		mag := 1 + (i/2)*2 // 1,1,3,3,5,5,…
		dl := mag
		if i%2 == 1 {
			dl = -mag
		}
		dt := 1 + i/2
		if dt > h {
			dt = h
		}
		p.Offsets = append(p.Offsets, Offset{Dt: dt, Dl: dl})
	}
	return p
}

// X returns the unrestricted upper-bound pattern X<inf,15>.
func X() Pattern {
	return Pattern{Name: "X<inf,15>", H: 1 << 30, D: 15, Infinite: true}
}

// ByName resolves the configuration labels used throughout the evaluation.
func ByName(name string) (Pattern, error) {
	known := map[string]func() Pattern{
		"L4<1,2>": func() Pattern { return L(1, 2) },
		"L8<1,6>": func() Pattern { return L(1, 6) },
		"L8<2,5>": func() Pattern { return L(2, 5) },
		"L8<3,4>": func() Pattern { return L(3, 4) },
		"L8<4,3>": func() Pattern { return L(4, 3) },
		"L8<5,2>": func() Pattern { return L(5, 2) },
		"L8<6,1>": func() Pattern { return L(6, 1) },
		"T8<2,5>": func() Pattern { return T(2, 5) },
		"T8<3,4>": func() Pattern { return T(3, 4) },
		"T8<1,6>": func() Pattern { return T(1, 6) },
		// T4<2,2> (Section 6.3) is the 4-input-mux trident: window depth 2
		// with a single deep lookahead prong and two shallow side prongs.
		"T4<2,2>": func() Pattern {
			return Pattern{Name: "T4<2,2>", H: 2, D: 2,
				Offsets: []Offset{{Dt: 2}, {Dt: 1, Dl: 1}, {Dt: 1, Dl: -1}}}
		},
		"X<inf,15>": X,
	}
	if f, ok := known[name]; ok {
		return f(), nil
	}
	return Pattern{}, fmt.Errorf("sched: unknown pattern %q", name)
}

// AlgorithmByName resolves a scheduler name, ignoring case: "algorithm1"
// (alias "alg1", and the empty name), "greedy" or "matching" — the
// inverse of Algorithm.String.
func AlgorithmByName(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "algorithm1", "alg1":
		return Algorithm1, nil
	case "greedy":
		return GreedySimple, nil
	case "matching":
		return Matching, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want algorithm1, greedy, or matching)", name)
}

// KnownPatternNames returns the resolvable labels, sorted.
func KnownPatternNames() []string {
	names := []string{
		"L4<1,2>", "L8<1,6>", "L8<2,5>", "L8<3,4>", "L8<4,3>", "L8<5,2>",
		"L8<6,1>", "T8<2,5>", "T8<3,4>", "T8<1,6>", "T4<2,2>", "X<inf,15>",
	}
	sort.Strings(names)
	return names
}
