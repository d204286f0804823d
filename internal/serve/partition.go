package serve

import "sort"

// Layer partitioning for shard mode. Round-robin (the original scheme)
// ignores that conv1-class layers dominate predicted cycles by orders of
// magnitude, so the shard that drew conv1 plus every W-th layer finishes
// long after its peers and sets the sweep's latency. The coordinator now
// packs layers onto workers with LPT (longest processing time first)
// greedy bin packing keyed on sim.EstimateSweepLayerCosts — the classic
// 4/3-approximation of makespan scheduling, which is deterministic and
// effectively optimal at fleet sizes of a handful of workers.

// PartitionLPT assigns the given layer indices to nWorkers shards by LPT
// bin packing on the predicted per-layer costs (costs[li] is layer li's
// key; a nil costs treats every layer as unit cost, degenerating to a
// balanced count split). The result is deterministic: layers are placed in
// (cost desc, index asc) order onto the least-loaded shard (ties to the
// lowest shard index), and each shard's slice is returned in increasing
// layer order. Every input index lands in exactly one shard; shards may be
// empty when there are fewer layers than workers.
func PartitionLPT(layers []int, costs []int64, nWorkers int) [][]int {
	if nWorkers < 1 {
		nWorkers = 1
	}
	order := make([]int, len(layers))
	copy(order, layers)
	costOf := func(li int) int64 {
		if costs == nil || li < 0 || li >= len(costs) {
			return 1
		}
		return costs[li]
	}
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := costOf(order[i]), costOf(order[j])
		if ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	slices := make([][]int, nWorkers)
	loads := make([]int64, nWorkers)
	for _, li := range order {
		best := 0
		for w := 1; w < nWorkers; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		slices[best] = append(slices[best], li)
		loads[best] += costOf(li)
	}
	for w := range slices {
		sort.Ints(slices[w])
	}
	return slices
}

// PartitionRoundRobin is the original scheme — layers[i] goes to worker
// i % nWorkers. The coordinator no longer uses it; it stays only as the
// comparison baseline LPT is measured against (the bench shard-balance
// rows and the partition tests).
func PartitionRoundRobin(layers []int, nWorkers int) [][]int {
	if nWorkers < 1 {
		nWorkers = 1
	}
	slices := make([][]int, nWorkers)
	for i, li := range layers {
		w := i % nWorkers
		slices[w] = append(slices[w], li)
	}
	return slices
}

// ShardBalance summarizes a partition under a cost model: the predicted
// cost of the heaviest shard, the mean shard cost over all shards (an
// empty shard is an idle worker the fleet paid for, so it counts), and
// their ratio (1.0 = perfectly balanced). The coordinator's sweep latency
// tracks Max; Max/Mean is the imbalance the BENCH_serve gate holds.
type ShardBalance struct {
	Max       float64 `json:"max"`
	Mean      float64 `json:"mean"`
	Imbalance float64 `json:"imbalance"`
}

// BalanceOf computes the balance stats of slices under costs (nil costs =
// unit cost per layer).
func BalanceOf(slices [][]int, costs []int64) ShardBalance {
	var b ShardBalance
	var total float64
	for _, sl := range slices {
		var load float64
		for _, li := range sl {
			c := int64(1)
			if costs != nil && li >= 0 && li < len(costs) {
				c = costs[li]
			}
			load += float64(c)
		}
		total += load
		if load > b.Max {
			b.Max = load
		}
	}
	if len(slices) > 0 {
		b.Mean = total / float64(len(slices))
	}
	if b.Mean > 0 {
		b.Imbalance = b.Max / b.Mean
	}
	return b
}

// allLayers returns [0, n) — the full-grid layer list the coordinator
// partitions on the first dispatch round.
func allLayers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
