package sched

// Algorithm selects the promotion heuristic.
type Algorithm int

const (
	// Algorithm1 is the paper's scheduler (Section 4): at each window
	// position it counts, for every ineffectual slot, how many effectual
	// weights could be promoted into it, and fills the least-flexible
	// (ideally exclusive) slots first, avoiding the blocked-promotion
	// pathology of Figure 4.
	Algorithm1 Algorithm = iota
	// GreedySimple is the baseline scheduler of Figure 11b: lanes claim the
	// first reachable weight in fixed order, with no exclusivity analysis.
	GreedySimple
	// Matching fills each column with a maximum bipartite matching between
	// free lanes and reachable weights (Kuhn's augmenting paths) — the
	// per-column optimum, an upper bound on what Algorithm 1's
	// exclusive-first heuristic can achieve within a single column. It is
	// an extension beyond the paper, used to measure how close Algorithm 1
	// gets to column-optimal.
	Matching
)

func (a Algorithm) String() string {
	switch a {
	case GreedySimple:
		return "greedy"
	case Matching:
		return "matching"
	default:
		return "algorithm1"
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
