package main

// decl is one reported metric: its name and unit. The two tables below
// are the benchmark's whole output vocabulary; BENCHMARK.json lists the
// same names and units (metrics_test.go checks that they agree).
type decl struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload. Each is
// defined and non-zero on every workload (see README.md for what an
// "operation" is on each). The two times are CPU times; see phaseFigures
// for why.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"cpu_ns_per_elem", "ns/elem"},
	{"success_ratio", "ratio"},
}

// isEndToEnd reports whether name is one of the endToEnd metrics.
func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// perLayer is printed by every traced run, on every workload. A layer a
// workload does not exercise reports 0, as does a percentile the sample
// cannot support.
var perLayer = []decl{
	// Client-observed figures of the untraced half of a traced run. The
	// first six move with how much CPU the host gives this guest (see
	// phaseFigures), so they are not gated; untraced runs print them as
	// comments.
	{"throughput_elems_per_s", "elem/s"},
	{"latency_p50_ms", "ms"},
	{"slo_met_ratio", "ratio"},
	{"heap_peak_mb", "MB"},
	{"setup_wall_ms", "ms"},
	{"runtime.cpu_util", "ratio"},
	{"merge_p50_ms", "ms"},
	{"sort_p50_ms", "ms"},
	{"mergek_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"job_mb_per_s", "MB/s"},
	{"job_latency_p50_s", "s"},
	// server: Server-Timing stages and the benchmark's ServeHTTP span.
	{"server.decode_ms", "ms"},
	{"server.coalesce_wait_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.execute_self_ms.merge", "ms"},
	{"server.execute_self_ms.sort", "ms"},
	{"server.execute_self_ms.mergek", "ms"},
	{"server.write_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"server.throttled", "count"},
	{"server.shed", "count"},
	// batch and overload: Server.Snapshot deltas.
	{"batch.pairs_per_round", "pairs"},
	{"batch.rounds", "count"},
	{"batch.imbalance_max", "ratio"},
	{"overload.state_changes", "count"},
	// Layer replays on the workload's own inputs.
	{"core.merge_uniform_ns_per_elem", "ns/elem"},
	{"core.merge_runs_ns_per_elem", "ns/elem"},
	{"core.partition_ns", "ns"},
	{"psort.sort_ns_per_elem", "ns/elem"},
	{"kway.merge_ns_per_elem", "ns/elem"},
	{"kway.auto_heap", "count"},
	{"kway.auto_tree", "count"},
	{"kway.auto_corank", "count"},
	{"kway.imbalance_max", "ratio"},
	{"wire.decode_ns_per_elem", "ns/elem"},
	{"wire.encode_ns_per_elem", "ns/elem"},
	// extsort and jobs: job Views and the manager snapshot.
	{"jobs.upload_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.copy_in_ms", "ms"},
	{"extsort.run_formation_ms", "ms"},
	{"extsort.merge_ms", "ms"},
	{"jobs.copyback_ms", "ms"},
	{"jobs.stream_ms", "ms"},
	{"jobs.poll_lag_ms", "ms"},
	{"extsort.runs", "count"},
	{"extsort.merge_passes", "count"},
	{"extsort.block_reads", "count"},
	{"extsort.block_writes", "count"},
	{"extsort.peak_buffer_records", "records"},
	{"jobs.journal_appends", "count"},
	{"jobs.fsyncs", "count"},
	// Go runtime of the benchmark process (server and client share it).
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	// The open-loop generator and the tracer themselves.
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}
