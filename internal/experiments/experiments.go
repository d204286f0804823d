// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each runner returns a Table whose rows mirror the
// paper's rows/series; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bittactical/internal/arch"
	"bittactical/internal/cache"
	"bittactical/internal/fixed"
	"bittactical/internal/nn"
	"bittactical/internal/sim"
	"bittactical/internal/tensor"
)

// Options configures a run.
type Options struct {
	// Zoo instantiates the model zoo; zero value uses nn.DefaultZoo().
	Zoo nn.ZooConfig
	// ActSeed drives activation synthesis.
	ActSeed int64
	// Models restricts the networks (nil = the paper's seven).
	Models []string
	// Trials is the per-point filter count for Figure 11 (0 = the paper's
	// 100).
	Trials int
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS): the engine
	// pool of a figure's one batched simulation, and separately the
	// parallelDo fan-out of the work outside the engine (model builds,
	// traffic pricing, scheduling censuses, analytic baselines).
	Parallelism int
}

func (o Options) zoo() nn.ZooConfig {
	if o.Zoo == (nn.ZooConfig{}) {
		return nn.DefaultZoo()
	}
	return o.Zoo
}

func (o Options) models() []string {
	if len(o.Models) == 0 {
		return nn.ModelNames
	}
	return o.Models
}

func (o Options) seed() int64 {
	if o.ActSeed == 0 {
		return 7
	}
	return o.ActSeed
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// simOpts threads the experiment worker budget into the simulation engine.
// Every simulating runner makes exactly one engine call (simulateCells),
// so the engine's (layer, filter-group) pool is the only parallelism
// around simulation: no job-level fan-out wraps it.
func (o Options) simOpts() sim.Options {
	return sim.Options{Parallelism: o.Parallelism}
}

// Quick returns options sized for unit tests: two small networks.
func Quick() Options {
	z := nn.DefaultZoo()
	z.ChannelScale, z.SpatialScale = 0.1, 0.25
	return Options{Zoo: z, Models: []string{"AlexNet-ES", "MobileNet"}, Trials: 5}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	line(dashes(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// workload is a built model with its activation tensors and lowered layers.
// Workloads returned by buildWorkloads are shared through a process-wide
// cache and must be treated as immutable.
type workload struct {
	Model *nn.Model
	Acts  []*tensor.T
	Low   []*nn.Lowered
}

// convOnly selects the convolutional layers: Figures 8c and 12 and the
// related-work baselines leave FC layers out (Section 6.2 and 6.4).
func convOnly(l *nn.Layer) bool { return l.Kind != nn.FC }

// layers returns the workload's lowered layers that keep accepts, in model
// order; a nil keep returns them all.
func (wl *workload) layers(keep func(*nn.Layer) bool) []*nn.Lowered {
	if keep == nil {
		return wl.Low
	}
	var out []*nn.Lowered
	for li, lw := range wl.Low {
		if keep(wl.Model.Layers[li]) {
			out = append(out, lw)
		}
	}
	return out
}

// simulateCells runs every (config, workload) cell of a figure as one
// batched engine invocation and returns the layer results as
// cells[config][workload]. When keep is non-nil each cell holds only the
// layers keep accepts, in model order. Configs run exactly as given: a
// runner that wants them at the zoo width applies WithWidth itself.
// Parallelism flows through the engine's own pool, which is what lets the
// pooled sweep state and worker arenas reach their zero-alloc steady state
// across the whole figure.
func simulateCells(o Options, cfgs []arch.Config, wls []*workload, keep func(*nn.Layer) bool) ([][][]sim.LayerResult, error) {
	cellCfgs := make([]arch.Config, 0, len(cfgs)*len(wls))
	lwss := make([][]*nn.Lowered, 0, len(cfgs)*len(wls))
	for _, cfg := range cfgs {
		for _, wl := range wls {
			cellCfgs = append(cellCfgs, cfg)
			lwss = append(lwss, wl.layers(keep))
		}
	}
	layerss, err := sim.SimulateLoweredSweepContext(context.Background(), cellCfgs, lwss, o.simOpts())
	if err != nil {
		return nil, err
	}
	cells := make([][][]sim.LayerResult, len(cfgs))
	for ci := range cells {
		cells[ci] = layerss[ci*len(wls) : (ci+1)*len(wls)]
	}
	return cells, nil
}

// workloadKey is everything a built workload depends on: the (fully
// resolved) zoo configuration including the width override, the model
// name, and the activation seed. Model construction and activation
// generation are deterministic functions of exactly these inputs, so a
// cached workload is bit-identical to a fresh build.
type workloadKey struct {
	zoo  nn.ZooConfig
	name string
	seed int64
}

// workloadResult is one cached build: the workload, or the error that
// building it returned (builds are deterministic, so the error is too).
type workloadResult struct {
	wl  *workload
	err error
}

// workloadCacheCap bounds resident workloads. An experiment session uses a
// handful of (zoo, width) variants over at most the seven zoo models;
// the bound only matters for long-lived processes sweeping many zoo
// scales.
const workloadCacheCap = 64

// workloadSeed seeds the workload cache's stripe hash.
var workloadSeed = maphash.MakeSeed()

// workloadCache memoizes built workloads process-wide, single-flighted so
// racing runners share one build. Model building dominated the
// steady-state allocation profile of every figure runner (PruneMagnitude,
// weight fill, tensor allocation — rebuilt per run before this cache);
// the figures re-run over identical options, so steady state now
// rebuilds nothing.
var workloadCache = cache.New(workloadCacheCap,
	func(k workloadKey) uint64 { return maphash.String(workloadSeed, k.name) ^ uint64(k.seed) },
	func(workloadResult) int64 { return 1 },
	nil)

// buildWorkload returns the cached workload for the key, building it on
// first use.
func buildWorkload(key workloadKey) (*workload, error) {
	r, _ := workloadCache.Get(key, func() workloadResult {
		m, err := nn.BuildModel(key.name, key.zoo)
		if err != nil {
			return workloadResult{err: err}
		}
		acts := m.GenerateActs(key.seed)
		low, err := m.Lowered(16, acts)
		if err != nil {
			return workloadResult{err: err}
		}
		return workloadResult{wl: &workload{Model: m, Acts: acts, Low: low}}
	})
	return r.wl, r.err
}

// buildWorkloads instantiates and lowers the selected models in parallel,
// through the process-wide cache — steady-state re-runs of a figure hit
// every model.
func buildWorkloads(o Options, width fixed.Width) ([]*workload, error) {
	names := o.models()
	out := make([]*workload, len(names))
	z := o.zoo()
	z.Width = width
	// Steady-state fast path: when every workload is already resident the
	// lookups are map probes — spawning the parallelDo scaffolding
	// (goroutines, closures, a semaphore channel) per figure run would be
	// the only allocation left on an otherwise warm path, and it scales
	// with the worker count, breaking parallel-vs-serial alloc parity.
	if cachedWorkloads(z, names, o.seed(), out) {
		return out, nil
	}
	errs := make([]error, len(names))
	parallelDo(o, len(names), func(i int) {
		out[i], errs[i] = buildWorkload(workloadKey{zoo: z, name: names[i], seed: o.seed()})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cachedWorkloads fills out from the cache alone, reporting whether every
// named workload was already built (it stops at the first absent,
// still-building or failed entry; partial fills are ignored by the
// caller).
func cachedWorkloads(z nn.ZooConfig, names []string, seed int64, out []*workload) bool {
	for i, name := range names {
		r, ok := workloadCache.Peek(workloadKey{zoo: z, name: name, seed: seed})
		if !ok || r.wl == nil {
			return false
		}
		out[i] = r.wl
	}
	return true
}

// parallelDo runs fn(i) for i in [0, n) on the option's worker budget.
func parallelDo(o Options, n int, fn func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.workers())
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// fx formats v as a fixed-precision "1.23x" cell. strconv.AppendFloat into
// a stack buffer costs exactly the result string — fmt.Sprintf's boxing
// and buffer management was a visible slice of the figure runners'
// residual steady-state allocations — and rounds identically to %.Nf
// (fmt's float verbs are AppendFloat underneath).
func fx(v float64, prec int) string {
	var arr [24]byte
	b := strconv.AppendFloat(arr[:0], v, 'f', prec, 64)
	b = append(b, 'x')
	return string(b)
}

func f1(v float64) string { return fx(v, 1) }
func f2(v float64) string { return fx(v, 2) }

// speedupOf is sim.Result.Speedup over a bare layer slice: total dense
// cycles against total actual cycles. The figure runners consume engine
// cells as []sim.LayerResult without assembling a Result per cell.
func speedupOf(layers []sim.LayerResult) float64 {
	var cycles, dense int64
	for i := range layers {
		cycles += layers[i].Cycles
		dense += layers[i].DenseCycles
	}
	if cycles == 0 {
		return 1
	}
	return float64(dense) / float64(cycles)
}

// speedups is speedupOf over one config's row of cells, one per workload.
func speedups(row [][]sim.LayerResult) []float64 {
	out := make([]float64, len(row))
	for wi, layers := range row {
		out[wi] = speedupOf(layers)
	}
	return out
}

// modelHeader is a per-model table header: the first column's title, one
// column per workload, then the geomean.
func modelHeader(first string, wls []*workload) []string {
	h := make([]string, 0, len(wls)+2)
	h = append(h, first)
	for _, wl := range wls {
		h = append(h, wl.Model.Name)
	}
	return append(h, "Geomean")
}

// speedupRow renders one row under a modelHeader: the label, one cell per
// workload, then their geomean, each formatted by f.
func speedupRow(label string, speed []float64, f func(float64) string) []string {
	row := make([]string, 0, len(speed)+2)
	row = append(row, label)
	for _, v := range speed {
		row = append(row, f(v))
	}
	return append(row, f(geomean(speed)))
}

// Registry maps experiment ids to runners.
var Registry = map[string]func(Options) (*Table, error){
	"table1":   Table1,
	"table1q8": Table1Q8,
	"table2":   func(o Options) (*Table, error) { return Table2(), nil },
	"table3":   func(o Options) (*Table, error) { return Table3(), nil },
	"fig8a":    Fig8a,
	"fig8b":    Fig8b,
	"fig8c":    Fig8c,
	"fig9":     Fig9,
	"fig10":    Fig10,
	"fig11a":   Fig11a,
	"fig11b":   Fig11b,
	"fig12":    Fig12,
	"fig13":    Fig13,
	// Extensions beyond the paper's figures.
	"attn-table1":    AttnTable1,
	"attn-fig8":      AttnFig8,
	"attn-batch":     AttnBatch,
	"backends-ext":   BackendsExt,
	"baselines-ext":  ExtendedBaselines,
	"ss-coverage":    SSCoverage,
	"ablation-sync":  AblationSync,
	"ablation-sched": AblationSched,
	"structured":     StructuredSparsity,
	"dataflow":       Dataflow,
}

// IDs returns the experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
