package experiments

import (
	"fmt"

	"bittactical/internal/arch"
	"bittactical/internal/backend"
	_ "bittactical/internal/backend/dstripes" // register the plugin back-end
	"bittactical/internal/sched"
)

// configSweep runs an arbitrary config list over the workloads and renders a
// Figure-8-style speedup table: one row per config, one column per model,
// plus the geomean. Shared by the fig8b/fig13 back-end sweep, the
// backends-ext extension, and tclsim's ad-hoc -backend mode.
func configSweep(o Options, wls []*workload, cfgs []arch.Config, id, title string) (*Table, error) {
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithWidth(wls[0].Model.Width)
	}
	cells, err := simulateCells(o, cfgs, wls, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Header: modelHeader("Config", wls)}
	for ci, cfg := range cfgs {
		label := fmt.Sprintf("%s<%d,%d>", cfg.Backend.Name(), cfg.Pattern.H, cfg.Pattern.D)
		t.Rows = append(t.Rows, speedupRow(label, speedups(cells[ci]), f1))
	}
	return t, nil
}

// BackendsExt compares the sign-magnitude streaming plugin (dstripes-sm)
// against TCLp — its dynamic-precision counterpart — over the paper's T8<2,5>
// front-end on two zoo networks. The gap between the rows is exactly the
// value of trimming the serial window to [Lo, Hi]: sign-magnitude walks
// every magnitude bit from bit 0, so TCLp can only be faster.
func BackendsExt(o Options) (*Table, error) {
	if len(o.Models) == 0 {
		o.Models = []string{"AlexNet-ES", "GoogLeNet-ES"}
	}
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	sm, err := backend.Lookup("dstripes-sm")
	if err != nil {
		return nil, err
	}
	cfgs := []arch.Config{
		arch.NewTCL(sched.T(2, 5), sm),
		arch.TCLp(sched.T(2, 5)),
	}
	t, err := configSweep(o, wls, cfgs,
		"backends-ext", "Speedup of the dstripes-sm plugin back-end vs TCLp (T8<2,5> front-end)")
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"dstripes-sm streams magnitude bits 0..Hi without dynamic-precision trimming; TCLp's advantage is the trimmed window")
	return t, nil
}

// BackendSpeedup runs one registered back-end, by registry name, over the
// fig8b pattern set and the selected models — tclsim's -backend mode. The
// name resolves through backend.Lookup, so plugin back-ends registered by a
// blank import run with no experiment-code changes.
func BackendSpeedup(o Options, name string) (*Table, error) {
	be, err := backend.Lookup(name)
	if err != nil {
		return nil, err
	}
	wls, err := buildWorkloads(o, o.zoo().Width)
	if err != nil {
		return nil, err
	}
	var cfgs []arch.Config
	for _, p := range []sched.Pattern{sched.L(1, 6), sched.T(2, 5), sched.L(4, 3)} {
		cfgs = append(cfgs, arch.NewTCL(p, be))
	}
	return configSweep(o, wls, cfgs,
		"backend", fmt.Sprintf("Speedup of back-end %s over DaDianNao++ (all layers)", be.Name()))
}
