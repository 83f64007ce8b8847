package main

import "repro/internal/experiments"

// def describes one metric the benchmark can print. The catalog is the
// single source of names and units: env.add and layers.set refuse
// anything not listed, and main_test checks the catalog against
// BENCHMARK.json.
type def struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves names the end-to-end metric (and workload) a per-layer
	// metric is predicted to move; empty for end-to-end metrics.
	moves string
}

// endToEnd lists the end-to-end metrics (host time, benchmark tracing
// off). Every workload reports every one of them; BENCHMARK.md says
// how each is measured on each workload.
var endToEnd = []def{
	{"setup_s", "s", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"cold_p50_ms", "ms", "lower", ""},
	{"hit_p50_ms", "ms", "lower", ""},
	{"sim_minstr_per_s", "Minstr/s", "higher", ""},
	{"alloc_mb_per_op", "MB", "lower", ""},
	{"live_heap_mb", "MB", "lower", ""},
	{"analytic_band_max", "ratio", "lower", ""},
}

const (
	toHit     = "hit_p50_ms @ serve-mix"
	toWriter  = "cold_p50_ms @ serve-mix"
	toExact   = "cold_p50_ms, sim_minstr_per_s @ exact-cold"
	toWarm    = "ops_per_s @ analysis-warm"
	toExactGC = "alloc_mb_per_op, cold_p50_ms @ exact-cold"
)

// perLayer lists the per-layer metrics of the traced run, each named
// by the public call it times.
var perLayer = append([]def{
	{"server.hit_handler_us", "us", "lower", "hit_p50_ms, ops_per_s @ serve-mix"},
	{"server.hit_transport_us", "us", "lower", toHit},
	{"server.hit_alloc_kb", "KB", "lower", "alloc_mb_per_op @ serve-mix"},
	{"server.trace_overhead_us", "us", "lower", toHit},
	{"server.cold_overhead_ms", "ms", "lower", "cold_p50_ms @ exact-cold, serve-mix (predicted ~0)"},
	{"server.result_hits", "count", "higher", "ops_per_s @ serve-mix"},
	{"server.result_misses", "count", "lower", "cold_p50_ms @ exact-cold, serve-mix; ops_per_s @ analysis-warm"},
	{"server.computations", "count", "lower", "cold_p50_ms @ exact-cold, serve-mix; ops_per_s @ analysis-warm"},
	{"experiments.lab_build_ms", "ms", "lower", "cold_p50_ms @ exact-cold, serve-mix; ops_per_s @ analysis-warm"},
	{"core.similarity_ms", "ms", "lower", toWarm},
	{"core.fanout_overhead_ms", "ms", "lower", toWriter + " (predicted small @ exact-cold)"},
	{"stats.fit_pca_ms", "ms", "lower", toWarm},
	{"cluster.cluster_ms", "ms", "lower", toWarm},
	{"sched.do_us", "us", "lower", toWriter},
	{"store.key_us", "us", "lower", toWriter},
	{"store.put_us", "us", "lower", toWriter},
	{"store.hit_ns", "ns", "lower", toWarm},
	{"store.hits", "count", "higher", "ops_per_s @ analysis-warm"},
	{"store.misses", "count", "lower", "cold_p50_ms @ exact-cold, serve-mix"},
	{"engine.exact_leaf_ms", "ms", "lower", toExact},
	{"engine.analytic_leaf_us", "us", "lower", toWriter},
	{"machine.leaf_fixed_ms", "ms", "lower", toExact},
	{"machine.ns_per_instr", "ns", "lower", toExact},
	{"cache.build_ms", "ms", "lower", toExact},
	{"cache.build_mb", "MB", "lower", "alloc_mb_per_op @ exact-cold"},
	{"tlb.build_us", "us", "lower", toExact},
	{"branch.build_us", "us", "lower", toExact},
	{"trace.new_generator_ms", "ms", "lower", toExact},
	{"machine.prime_ms", "ms", "lower", toExact},
	{"trace.fill_ns_per_event", "ns", "lower", toExact},
	{"cache.access_ns", "ns", "lower", toExact},
	{"machine.model_ns_per_instr", "ns", "lower", toExact},
	{"runtime.gc_cpu_frac", "ratio", "lower", toExactGC},
	{"runtime.gc_cycles_per_op", "count", "lower", toExactGC},
	{"bench.trace_overhead_ns", "ns", "lower", "none (benchmark-side span cost per op)"},
	{"bench.unexplained_pct", "%", "lower", "none (op time the layer sum leaves unexplained)"},
}, runDefs()...)

// runDefs is one experiments.run_ms.<id> per registry experiment.
func runDefs() []def {
	var out []def
	for _, id := range experiments.IDs() {
		out = append(out, def{"experiments.run_ms." + id, "ms", "lower", toWarm})
	}
	return out
}

// lookup finds a metric definition in a catalog.
func lookup(cat []def, name string) (def, bool) {
	for _, d := range cat {
		if d.name == name {
			return d, true
		}
	}
	return def{}, false
}
