package main

// metricDef is one entry of the metric catalogue, in BENCHMARK.json's
// shape. Bound is the share of the baseline's median by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the simulator sees, measured with tracing
// off. An op is a pass for the sweep workloads and a request for the
// serving workloads, so latency_p50_ms is the pass time of a sweep.
//
// The time bounds come from the run-to-run spread measured on a shared
// 2-vCPU host, where the same pass varies by ±10% within one run as the
// host's effective CPU speed drifts. Retained memory does not drift with
// the host, so its bound keeps the default 10%. README.md records the
// measured spreads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are named <module>.<metric>. Times are per traced op; counts
// are per untraced op. Every workload reports every metric, 0 where the
// workload does not reach the layer.
var perLayer = []metricDef{
	{Name: "nn.build_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.acts_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.groups", Unit: "count", Better: "lower"},
	{Name: "sched.hits", Unit: "count", Better: "higher"},
	{Name: "sched.misses", Unit: "count", Better: "lower"},
	{Name: "sched.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "experiments.fig11a_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.fig11b_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.allocs_per_pass", Unit: "count", Better: "lower"},
	{Name: "sim.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.conv_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.gconv_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.dwconv_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.fc_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.conv_mmacs_per_s", Unit: "MMAC/s", Better: "higher"},
	{Name: "sim.gconv_mmacs_per_s", Unit: "MMAC/s", Better: "higher"},
	{Name: "sim.dwconv_mmacs_per_s", Unit: "MMAC/s", Better: "higher"},
	{Name: "sim.fc_mmacs_per_s", Unit: "MMAC/s", Better: "higher"},
	{Name: "sim.allocs_per_pass", Unit: "count", Better: "lower"},
	{Name: "sim.plane_hits", Unit: "count", Better: "higher"},
	{Name: "sim.plane_misses", Unit: "count", Better: "lower"},
	{Name: "sim.plane_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.plane_evictions", Unit: "count", Better: "lower"},
	{Name: "sim.plane_mb", Unit: "MiB", Better: "lower"},
	{Name: "serve.edge_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.build_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_elapsed_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.engine_elapsed_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.engine_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.response_kb", Unit: "KiB", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "runtime.max_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage_ratio", Unit: "ratio", Better: "higher"},
}
