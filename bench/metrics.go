package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and directions; a test holds the two together.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is a regression.
	bound float64
}

// endToEnd are the metrics a user of the service would see. Each is
// emitted on every workload of an untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sat_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.03},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer are the metrics of single layers, named layer.metric after
// the module they measure. A traced run emits all of them on every
// workload; one a workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "text.bag_us", unit: "us", better: "lower"},
	{name: "text.bag_allocs", unit: "count", better: "lower"},

	{name: "core.project_miss_us", unit: "us", better: "lower"},
	{name: "core.project_miss_allocs", unit: "count", better: "lower"},
	{name: "core.project_hit_us", unit: "us", better: "lower"},
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.update_skill_us", unit: "us", better: "lower"},

	{name: "rank.topk_us", unit: "us", better: "lower"},
	{name: "rank.topk_allocs", unit: "count", better: "lower"},
	{name: "rank.merge_us", unit: "us", better: "lower"},

	{name: "store.candidates_us", unit: "us", better: "lower"},
	{name: "store.add_task_us", unit: "us", better: "lower"},
	{name: "store.assign_us", unit: "us", better: "lower"},
	{name: "store.record_answer_us", unit: "us", better: "lower"},
	{name: "store.resolve_us", unit: "us", better: "lower"},
	{name: "store.compactions", unit: "count", better: "lower"},
	{name: "store.recovery_s", unit: "s", better: "lower"},

	{name: "journal.records_per_op", unit: "count", better: "lower"},
	{name: "journal.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "journal.bytes_per_op", unit: "B", better: "lower"},

	{name: "manager.rankonly_us", unit: "us", better: "lower"},
	{name: "manager.rankonly_self_us", unit: "us", better: "lower"},
	{name: "manager.submit_us", unit: "us", better: "lower"},
	{name: "manager.resolve_us", unit: "us", better: "lower"},

	{name: "server.handler_us", unit: "us", better: "lower"},
	{name: "server.handler_self_us", unit: "us", better: "lower"},
	{name: "server.handler_allocs", unit: "count", better: "lower"},
	{name: "server.handle_select_p50_ms", unit: "ms", better: "lower"},
	{name: "server.handle_mutate_p50_ms", unit: "ms", better: "lower"},
	{name: "server.errors", unit: "count", better: "lower"},
	{name: "server.shed", unit: "count", better: "lower"},

	{name: "http.loopback_us", unit: "us", better: "lower"},
	{name: "http.loopback_self_us", unit: "us", better: "lower"},
	{name: "http.process_gap_us", unit: "us", better: "lower"},

	{name: "router.selections_us", unit: "us", better: "lower"},
	{name: "router.leg_us", unit: "us", better: "lower"},
	{name: "router.self_us", unit: "us", better: "lower"},
	{name: "router.requests_per_op", unit: "count", better: "lower"},
	{name: "router.wire_kb_per_op", unit: "KB", better: "lower"},
	{name: "router.partials", unit: "count", better: "lower"},
	{name: "router.refreshes", unit: "count", better: "lower"},

	{name: "setup.cpu_s", unit: "s", better: "lower"},
	{name: "setup.boot_spread", unit: "ratio", better: "lower"},
	{name: "setup.snapshot_kb", unit: "KB", better: "lower"},

	{name: "proc.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.cpu_sys_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.runq_wait_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.vol_ctx_switches_per_op", unit: "count", better: "lower"},
	{name: "proc.mallocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_cycles_per_kop", unit: "count", better: "lower"},
	{name: "proc.rss_hwm_mb", unit: "MB", better: "lower"},

	{name: "gen.host_speed", unit: "ratio", better: "higher"},
	{name: "gen.setup_raw_s", unit: "s", better: "lower"},
	{name: "gen.op_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "gen.sat_ops_raw_s", unit: "1/s", better: "higher"},
	{name: "gen.op_p90_ms", unit: "ms", better: "lower"},
	{name: "gen.op_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.op_samples", unit: "count", better: "higher"},
	{name: "gen.select_p50_ms", unit: "ms", better: "lower"},
	{name: "gen.mutate_p50_ms", unit: "ms", better: "lower"},
	{name: "gen.sat_p50_ms", unit: "ms", better: "lower"},
	{name: "gen.client_cpu_share", unit: "ratio", better: "lower"},
	{name: "gen.speed_probe_ms", unit: "ms", better: "lower"},
	{name: "gen.prep_s", unit: "s", better: "lower"},
	{name: "gen.unexplained_us", unit: "us", better: "lower"},
}

// metricValue is one measurement as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit picks the metrics named by defs out of measured, with their
// units. A per-layer metric the run did not measure reads 0; an
// end-to-end metric must have been measured.
func emit(defs []metricDef, measured map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: measured[d.name], Unit: d.unit}
	}
	return out
}
