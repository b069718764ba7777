package main

import (
	"time"

	"mergepath/internal/server"
	"mergepath/internal/stats"
)

// requestSpans records one traced request: the client's request with
// its encode (writing the request) and decode (reading and checking the
// response) parts, the ServeHTTP span sv when the wrapper saw it, and
// the Server-Timing stages under it. Server-Timing carries durations
// only, so the stages are laid out in lifecycle order from the start
// of ServeHTTP: decode, then execute holding queue_wait and
// coalesce_wait. partition and merge are summed worker time, not wall
// time, and are left out of the tree.
func requestSpans(tr *tracer, o op, sv [2]time.Time, haveServe bool) {
	root := tr.add(0, "client.request", o.req, o.sent, o.end)
	if !o.wrote.IsZero() {
		tr.add(root, "client.encode", o.req, o.sent, o.wrote)
	}
	if !o.firstByte.IsZero() {
		tr.add(root, "client.decode", o.req, o.firstByte, o.end)
	}
	if !haveServe {
		return
	}
	serve := tr.add(root, "server.serve", o.req, sv[0], sv[1])
	durs := make(map[string]time.Duration)
	for _, st := range parseServerTiming(o.timing) {
		durs[st.name] += st.dur
	}
	at := sv[0]
	if d, ok := durs[server.StageDecode]; ok {
		tr.add(serve, "server.decode", o.req, at, at.Add(d))
		at = at.Add(d)
	}
	if d, ok := durs[server.StageExecute]; ok {
		exec := tr.add(serve, "server.execute", o.req, at, at.Add(d))
		for _, name := range []string{server.StageQueueWait, server.StageCoalesceWait} {
			if d2, ok := durs[name]; ok {
				tr.add(exec, "server."+name, o.req, at, at.Add(d2))
				at = at.Add(d2)
			}
		}
	}
}

// layerMetrics computes the per-layer figures other than the replays:
// client figures and Snapshot deltas of the untraced half (base), and
// span, job and exact-count figures of the traced pass. Per-request
// times are means, so the parts of a request add up.
func layerMetrics(w *workload, base, traced *phase, spans []span) map[string]float64 {
	m := make(map[string]float64)

	// Client figures of the untraced half.
	byKind := make(map[string][]time.Duration)
	var lat, late, jobLat []time.Duration
	var jobBytes, jobSecs float64
	failed := 0
	for _, o := range base.ops {
		if !o.ok {
			failed++
			continue
		}
		byKind[o.kind] = append(byKind[o.kind], o.latency())
		lat = append(lat, o.latency())
		if jr := o.job; jr != nil {
			jobBytes += float64(8 * o.elems)
			jobSecs += jr.stream1.Sub(jr.upload0).Seconds()
			jobLat = append(jobLat, o.latency())
		} else {
			late = append(late, max(0, o.sent.Sub(o.due)))
		}
	}
	for _, k := range []string{"merge", "sort", "mergek"} {
		m[k+"_p50_ms"] = stats.Millis(medianDur(byKind[k]))
	}
	m["latency_p90_ms"] = stats.Millis(tail(lat, 0.90))
	m["latency_p99_ms"] = stats.Millis(tail(lat, 0.99))
	m["failed_ratio"] = float64(failed) / float64(max(len(base.ops), 1))
	if jobSecs > 0 {
		m["job_mb_per_s"] = jobBytes / 1e6 / jobSecs
	}
	m["job_latency_p50_s"] = medianDur(jobLat).Seconds()
	m["loadgen.late_p99_ms"] = stats.Millis(tail(late, 0.99))

	// Snapshot deltas of the untraced half.
	s0, s1 := base.snap0, base.snap1
	m["server.throttled"] = float64(s1.Queue.Throttled - s0.Queue.Throttled)
	m["server.shed"] = float64(s1.Queue.Shed - s0.Queue.Shed)
	rounds := s1.Pool.BatchRounds - s0.Pool.BatchRounds
	m["batch.rounds"] = float64(rounds)
	if rounds > 0 {
		m["batch.pairs_per_round"] = float64(s1.Pool.BatchPairs-s0.Pool.BatchPairs) / float64(rounds)
	}
	m["batch.imbalance_max"] = s1.Pool.ImbalanceMax
	m["overload.state_changes"] = float64(transitions(s1) - transitions(s0))

	// Runtime of the untraced half.
	m["runtime.gc_cycles"] = float64(base.mem1.NumGC - base.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(base.mem1.PauseTotalNs-base.mem0.PauseTotalNs) / 1e6
	m["runtime.alloc_bytes_per_op"] = float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc) / float64(max(len(base.ops), 1))

	// Exact counts of the traced pass: a fixed operation sequence, so
	// the strategy choices and the per-job I/O repeat from run to run.
	t0, t1 := traced.snap0, traced.snap1
	m["kway.auto_heap"] = float64(t1.KWay.MergesHeap - t0.KWay.MergesHeap)
	m["kway.auto_tree"] = float64(t1.KWay.MergesTree - t0.KWay.MergesTree)
	m["kway.auto_corank"] = float64(t1.KWay.MergesCoRank - t0.KWay.MergesCoRank)
	m["kway.imbalance_max"] = t1.KWay.ImbalanceMax

	var tracedJobs int
	for _, o := range traced.ops {
		jr := o.job
		if jr == nil || jr.view.Stats == nil {
			continue
		}
		tracedJobs++
		st := jr.view.Stats
		m["extsort.runs"] = float64(st.Runs)
		m["extsort.merge_passes"] = float64(st.MergePasses)
		m["extsort.block_reads"] = float64(st.BlockReads)
		m["extsort.block_writes"] = float64(st.BlockWrites)
		m["extsort.peak_buffer_records"] = float64(st.PeakBufferRecords)
		m["kway.imbalance_max"] = max(m["kway.imbalance_max"], st.KWayImbalanceMax)
	}
	if tracedJobs > 0 && t1.Jobs != nil && t0.Jobs != nil {
		m["jobs.journal_appends"] = float64(t1.Jobs.Durability.JournalAppends-t0.Jobs.Durability.JournalAppends) / float64(tracedJobs)
		m["jobs.fsyncs"] = float64(t1.Jobs.Durability.Fsyncs-t0.Jobs.Durability.Fsyncs) / float64(tracedJobs)
	}

	// Spans of the traced pass.
	self := selfTimes(spans)
	kind := make(map[string]string)
	for _, o := range traced.ops {
		kind[o.req] = o.kind
	}
	serveDur := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Name == "server.serve" {
			serveDur[s.Req] = s.dur()
		}
	}
	acc := make(map[string][]time.Duration)
	for _, s := range spans {
		switch s.Name {
		case "server.decode", "server.queue_wait", "server.coalesce_wait",
			"jobs.upload", "jobs.queue_wait", "jobs.copy_in", "extsort.run_formation",
			"extsort.merge", "jobs.copyback", "jobs.stream", "jobs.poll_lag":
			acc[s.Name+"_ms"] = append(acc[s.Name+"_ms"], s.dur())
		case "server.execute":
			k := "server.execute_self_ms." + kind[s.Req]
			acc[k] = append(acc[k], self[s.ID])
		case "server.serve":
			acc["server.write_ms"] = append(acc["server.write_ms"], self[s.ID])
		case "client.request":
			if d, ok := serveDur[s.Req]; ok {
				acc["server.unattributed_ms"] = append(acc["server.unattributed_ms"], s.dur()-d)
			}
		}
	}
	for k, v := range acc {
		m[k] = stats.Millis(stats.Sample{Durations: v}.Mean())
	}

	if b := medianDur(opLatencies(base.ops)); b > 0 {
		m["trace.overhead_ratio"] = float64(medianDur(opLatencies(traced.ops))) / float64(b)
	}
	return m
}

// transitions counts overload state-machine changes since start.
func transitions(s server.MetricsSnapshot) uint64 {
	o := s.Overload
	return o.TransitionsDegraded + o.TransitionsShedding + o.TransitionsHealthy
}

// opLatencies returns the latencies of the verified operations.
func opLatencies(ops []op) []time.Duration {
	var out []time.Duration
	for _, o := range ops {
		if o.ok {
			out = append(out, o.latency())
		}
	}
	return out
}

// tail is the q-quantile of ds, or 0 when fewer than minBeyond samples
// lie beyond it.
func tail(ds []time.Duration, q float64) time.Duration {
	v, _ := percentile(ds, q)
	return v
}
