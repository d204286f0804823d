package sched

import (
	"fmt"
	"math"
)

// Filter is a single filter's dense schedule: Steps×Lanes weight codes in
// row-major order. Pad marks channel-padding slots (always-zero positions
// that exist only because the reduction is not a multiple of the lane
// count); it may be nil when no padding exists.
type Filter struct {
	Lanes, Steps int
	W            []int32
	Pad          []bool
}

// NewFilter wraps a weight matrix; it panics if the slice sizes disagree or
// the filter holds 2^31 or more slots, past what Entry.Src can name
// (construction bug, not a runtime condition).
func NewFilter(lanes, steps int, w []int32, pad []bool) Filter {
	if len(w) != lanes*steps || len(w) > math.MaxInt32 {
		panic(fmt.Sprintf("sched: filter weights %d != %d steps × %d lanes (< 2^31)", len(w), steps, lanes))
	}
	if pad != nil && len(pad) != lanes*steps {
		panic("sched: pad mask size mismatch")
	}
	return Filter{Lanes: lanes, Steps: steps, W: w, Pad: pad}
}

// At returns the weight at (step, lane).
func (f Filter) At(step, lane int) int32 { return f.W[step*f.Lanes+lane] }

// IsPad reports whether (step, lane) is a channel-padding slot.
func (f Filter) IsPad(step, lane int) bool {
	return f.Pad != nil && f.Pad[step*f.Lanes+lane]
}

// NNZ returns the number of effectual weights.
func (f Filter) NNZ() int {
	n := 0
	for _, v := range f.W {
		if v != 0 {
			n++
		}
	}
	return n
}

// Entry is one lane's work in one schedule column, 8 bytes: a lane's slot of
// the paper's weight-scratchpad column (Section 5.1), holding the weight and,
// in place of its ws select, the source the select names. A zero Weight means
// the lane idles that column.
type Entry struct {
	Weight int32
	// Src is the weight's dense-schedule position, step*Lanes + lane: the
	// activation the lane's mux must select. The source step is Src/Lanes
	// and the source lane Src%Lanes; Pattern.Select names the mux input.
	Src int32
}

// Column is one schedule step emitted by the scheduler: what each lane
// multiplies, plus the ALC window advance that follows.
type Column struct {
	// Head is the dense step at the lookahead window's base when the column
	// issues.
	Head int
	// Advance is the ALC field: how many dense steps the window slides
	// after the column (≥ 1; > 1 skips fully-consumed or all-zero steps).
	Advance int
	Entries []Entry
}

// Schedule is the scheduler's output for one filter (or one filter of a
// jointly-scheduled group).
type Schedule struct {
	Lanes      int
	DenseSteps int
	Columns    []Column
}

// Len returns the schedule length in columns — the front-end execution time
// in the unit of "dense schedule columns".
func (s *Schedule) Len() int { return len(s.Columns) }

// SlotKind classifies one (column, lane) work slot for the Figure 9
// front-end breakdown.
type SlotKind int

const (
	// SlotUnpromoted: an effectual weight executed at its dense position.
	SlotUnpromoted SlotKind = iota
	// SlotLookahead: an effectual weight promoted in time only.
	SlotLookahead
	// SlotLookaside: an effectual weight promoted across lanes.
	SlotLookaside
	// SlotZero: an idle lane over a sparsity zero the scheduler could not
	// fill ("Zero Reads" in Figure 9).
	SlotZero
	// SlotPad: an idle lane over a channel-padding position.
	SlotPad
)

func (k SlotKind) String() string {
	switch k {
	case SlotUnpromoted:
		return "unpromoted"
	case SlotLookahead:
		return "lookahead"
	case SlotLookaside:
		return "lookaside"
	case SlotZero:
		return "zero"
	case SlotPad:
		return "padding"
	default:
		return fmt.Sprintf("SlotKind(%d)", int(k))
	}
}

// Stats is the front-end slot census of a schedule.
type Stats struct {
	Columns    int
	Slots      [5]int64 // indexed by SlotKind
	DenseSteps int
}

// Add accumulates another census.
func (s *Stats) Add(o Stats) {
	s.Columns += o.Columns
	s.DenseSteps += o.DenseSteps
	for k := range s.Slots {
		s.Slots[k] += o.Slots[k]
	}
}

// Stats classifies every slot of the schedule against the filter: an
// effectual weight at its own dense position is unpromoted, one from a later
// step of its own lane lookahead, and one from another lane lookaside.
func (s *Schedule) Stats(f Filter) Stats {
	st := Stats{Columns: s.Len(), DenseSteps: s.DenseSteps}
	for _, col := range s.Columns {
		stay := col.Head * s.Lanes
		for lane, e := range col.Entries {
			switch src := int(e.Src); {
			case e.Weight == 0:
				if f.IsPad(col.Head, lane) {
					st.Slots[SlotPad]++
				} else {
					st.Slots[SlotZero]++
				}
			case src == stay+lane:
				st.Slots[SlotUnpromoted]++
			case src%s.Lanes == lane:
				st.Slots[SlotLookahead]++
			default:
				st.Slots[SlotLookaside]++
			}
		}
	}
	return st
}

// Verify checks every invariant the hardware depends on (DESIGN.md §5): each
// entry's source lies inside the filter and holds the entry's weight; each
// effectual weight is scheduled exactly once; every source is the lane's stay
// input or an edge of the pattern (Pattern.Select), so promoted weights stay
// inside the lookahead window; lanes hold at most one weight per column; the
// ALC advances monotonically and never abandons unexecuted weights; column
// count never exceeds dense steps.
func Verify(f Filter, p Pattern, s *Schedule) error {
	if s.Lanes != f.Lanes || s.DenseSteps != f.Steps {
		return fmt.Errorf("sched: verify: geometry mismatch")
	}
	if s.Len() > f.Steps && f.Steps > 0 {
		return fmt.Errorf("sched: verify: %d columns exceed %d dense steps", s.Len(), f.Steps)
	}
	seen := make(map[int]bool, f.NNZ())
	head := 0
	for ci, col := range s.Columns {
		if col.Head < head {
			return fmt.Errorf("sched: verify: column %d head %d moved backwards (prev %d)", ci, col.Head, head)
		}
		head = col.Head
		if col.Advance < 1 {
			return fmt.Errorf("sched: verify: column %d advance %d < 1", ci, col.Advance)
		}
		if len(col.Entries) != f.Lanes {
			return fmt.Errorf("sched: verify: column %d has %d entries", ci, len(col.Entries))
		}
		for lane, e := range col.Entries {
			if e.Weight == 0 {
				continue
			}
			pos := int(e.Src)
			if pos < 0 || pos >= len(f.W) {
				return fmt.Errorf("sched: verify: column %d lane %d source %d outside the %d×%d filter",
					ci, lane, pos, f.Steps, f.Lanes)
			}
			step, srcLane := pos/f.Lanes, pos%f.Lanes
			if f.W[pos] != e.Weight {
				return fmt.Errorf("sched: verify: column %d lane %d claims weight %d at (%d,%d) but dense holds %d",
					ci, lane, e.Weight, step, srcLane, f.W[pos])
			}
			if seen[pos] {
				return fmt.Errorf("sched: verify: weight at (%d,%d) scheduled twice", step, srcLane)
			}
			seen[pos] = true
			if p.Infinite {
				continue
			}
			if _, ok := p.Select(col.Head, lane, f.Lanes, e.Src); !ok {
				return fmt.Errorf("sched: verify: column %d lane %d at head %d reaches (%d,%d) through no edge of %s",
					ci, lane, col.Head, step, srcLane, p.Name)
			}
		}
	}
	// Completeness: every effectual weight executed.
	for step := 0; step < f.Steps; step++ {
		for lane := 0; lane < f.Lanes; lane++ {
			pos := step*f.Lanes + lane
			if f.W[pos] != 0 && !seen[pos] {
				return fmt.Errorf("sched: verify: weight at (%d,%d) never scheduled", step, lane)
			}
		}
	}
	return nil
}
