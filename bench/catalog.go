package main

// metric is one catalogue entry. Bound is the largest fraction by which a
// change may worsen the median before it counts as a regression; per-layer
// metrics carry none. Bound 0 marks a metric that is exact for a commit,
// where any difference is a change. The catalogue is mirrored in
// BENCHMARK.json at the repository root (catalog_test.go keeps the two
// equal).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics a user of the scheduler sees. Every workload
// reports every one of them, and none is ever zero: on the closed-loop
// workloads an item is one loop, on served it is one request. The timing
// bounds are as wide as the benchmark allows because the machine it was
// calibrated on, two shared cores, ran 5-18% apart from one run to the next
// (bench/README.md, Calibration).
var endToEnd = []metric{
	// From process start to the first timed operation: inputs built,
	// components started, one warm-up pass run. Median of three cold
	// processes.
	{"setup_s", "s", "lower", 0.25},
	// Items completed per second by one client in a closed loop: loops,
	// median over passes, or served's requests, median over windows.
	{"throughput_per_s", "1/s", "higher", 0.25},
	// Per-item latency: per loop over all passes, or per request at the
	// nominal rate, timed from its due time. The p99 is printed as detail
	// and must have minBeyond samples beyond it, but is not gated: served's
	// p99 moved by up to 2x between runs of one seed, its p90 by about 10%.
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	// VmHWM of the workload's process.
	{"peak_rss_mb", "MB", "lower", 0.20},
	// Share of compiled loops whose II equals the MII (the paper's
	// headline, 96% on its corpus). Exact: the loop populations are fixed,
	// and on served it covers a fixed set of pool loops.
	{"ii_eq_mii_pct", "%", "higher", 0},
	// Run time of the generated code relative to the MII bound: kernel-only
	// cycles at simTrips iterations, summed over loops, divided by
	// simTrips*MII summed the same way. Simulated on simulate, computed
	// from II and stage count elsewhere. Exact, as above.
	{"cycles_vs_mii", "x", "lower", 0},
	// Mean of II - MII over the same loops. Exact, as above.
	{"delta_ii_per_loop", "cycles", "lower", 0},
}

// exactDetail lists detail lines that are exact for a commit but exist on
// simulate only, so they cannot be end-to-end metrics. -compare flags any
// change in them as it does for the exact end-to-end metrics.
var exactDetail = []metric{
	{"sim_cycles", "count", "lower", 0},    // kernel-only cycles per pass
	{"code_size_ops", "count", "lower", 0}, // explicit-schema code size per pass
}

// perLayer lists the single-layer metrics. Busy shares and call rates come
// from the traced run's spans (self time), counts from Schedule.Stats,
// Kernel, Server.CacheStats and Proxy.MetricsText, per pass on the
// closed-loop workloads and per traced phase on served. A layer a workload
// never calls reads 0 there. Per-call latency percentiles are printed in the
// detail lines, not here: they are undefined for a layer with no calls.
var perLayer = []metric{
	{"looplang.busy_pct", "%", "lower", 0},
	{"looplang.mb_per_s", "MB/s", "higher", 0},
	{"mii.busy_pct", "%", "lower", 0},
	{"mii.calls_per_ms", "1/ms", "higher", 0},
	{"mii.mindist_inner", "count", "lower", 0},
	{"mii.resmii_inspections", "count", "lower", 0},
	{"mii.rec_bound_pct", "%", "lower", 0},
	{"listsched.busy_pct", "%", "lower", 0},
	{"listsched.calls_per_ms", "1/ms", "higher", 0},
	{"core.busy_pct", "%", "lower", 0},
	{"core.calls_per_ms", "1/ms", "higher", 0},
	{"core.check_busy_pct", "%", "lower", 0},
	{"core.ii_attempts", "count", "lower", 0},
	{"core.sched_steps", "count", "lower", 0},
	{"core.steps_useful_ratio", "ratio", "higher", 0},
	{"core.unschedules", "count", "lower", 0},
	{"core.findtimeslot_iters", "count", "lower", 0},
	{"core.heightr_relax", "count", "lower", 0},
	{"core.estart_pred_exams", "count", "lower", 0},
	{"core.degraded", "count", "lower", 0},
	{"core.vs_list_ratio", "x", "lower", 0},
	{"codegen.busy_pct", "%", "lower", 0},
	{"codegen.calls_per_ms", "1/ms", "higher", 0},
	{"codegen.kernel_ops", "count", "lower", 0},
	{"codegen.rotating_regs", "count", "lower", 0},
	{"modvar.busy_pct", "%", "lower", 0},
	{"modvar.calls_per_ms", "1/ms", "higher", 0},
	{"modvar.unroll_mean", "x", "lower", 0},
	{"modvar.code_size_ops", "count", "lower", 0},
	{"vliw.busy_pct", "%", "lower", 0},
	{"vliw.sim_cycles", "count", "lower", 0},
	{"vliw.sim_cycles_per_us", "1/us", "higher", 0},
	{"schedcache.hits", "count", "higher", 0},
	{"schedcache.misses", "count", "lower", 0},
	{"schedcache.evictions", "count", "lower", 0},
	{"schedcache.inflight_joins", "count", "higher", 0},
	{"schedcache.hit_ratio", "ratio", "higher", 0},
	{"server.busy_pct", "%", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"proxy.busy_pct", "%", "lower", 0},
	{"proxy.retries", "count", "lower", 0},
	{"proxy.hedges", "count", "lower", 0},
	{"proxy.hedge_wins", "count", "higher", 0},
	{"loadgen.busy_pct", "%", "lower", 0},
	{"loadgen.backlog_max", "count", "lower", 0},
	{"harness.busy_pct", "%", "lower", 0},
	{"runtime.alloc_kb_per_item", "KB", "lower", 0},
	{"runtime.gc_cpu_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// find looks a metric up by name in one catalogue.
func find(set []metric, name string) (metric, bool) {
	for _, m := range set {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
