package server

import (
	"net/http"

	"mergepath/internal/promtext"
)

// Prometheus text exposition (format version 0.0.4) on GET
// /metrics/prom. The document is rendered from the same MetricsSnapshot
// that backs the JSON /metrics endpoint, so the two surfaces report
// identical numbers by construction; only the units differ (Prometheus
// convention: seconds — see stats.Millis for the unit policy). Latency
// histograms are exported as summaries: {quantile=...} series plus
// _sum and _count, which is what the fixed-bucket streaming histogram
// supports without re-bucketing. The writer itself lives in
// internal/promtext, shared with mergerouter's exposition.

// renderProm renders the full exposition document for a snapshot.
func renderProm(snap MetricsSnapshot) string {
	w := promtext.NewWriter()
	secs := promtext.Secs

	w.Gauge("mergepathd_uptime_seconds", "", "Seconds since the server started.", snap.UptimeSeconds)

	// Queue / admission control.
	w.Gauge("mergepathd_queue_depth", "", "Jobs currently in the admission queue.", float64(snap.Queue.Depth))
	w.Gauge("mergepathd_queue_capacity", "", "Admission queue capacity; a full queue sheds with 503.", float64(snap.Queue.Capacity))
	w.Counter("mergepathd_queue_shed_total", "", "Requests shed with 503 because the admission queue was full.", float64(snap.Queue.Shed))
	w.Counter("mergepathd_throttled_total", "", "Requests shed with 429 by the adaptive overload controller.", float64(snap.Queue.Throttled))
	w.Counter("mergepathd_request_timeouts_total", "", "Requests whose deadline expired before completion (504).", float64(snap.Queue.Timeouts))
	w.Counter("mergepathd_requests_canceled_total", "", "Requests abandoned by their client before completion (499).", float64(snap.Queue.Canceled))
	w.Counter("mergepathd_shed_at_flush_total", "", "Coalesced pairs dropped expired or canceled at batch-flush time.", float64(snap.Queue.ShedAtFlush))

	// Pool / rounds.
	w.Gauge("mergepathd_pool_workers", "", "Fixed worker pool size; every round engages all workers.", float64(snap.Pool.Workers))
	w.Gauge("mergepathd_pool_utilization", "", "Fraction of uptime the pool spent executing rounds.", snap.Pool.Utilization)
	w.Counter("mergepathd_pool_busy_seconds_total", "", "Total seconds the pool spent executing rounds.", snap.Pool.BusySeconds)
	w.Counter("mergepathd_batch_rounds_total", "", "Coalesced (multi-request) batch rounds executed.", float64(snap.Pool.BatchRounds))
	w.Counter("mergepathd_batch_pairs_total", "", "Small merge requests coalesced into batch rounds.", float64(snap.Pool.BatchPairs))
	w.Counter("mergepathd_batch_elements_total", "", "Output elements produced by coalesced batch rounds.", float64(snap.Pool.BatchElems))
	w.Counter("mergepathd_run_rounds_total", "", "Uncoalesced whole-pool rounds (large merges) with load stats.", float64(snap.Pool.RunRounds))
	w.Counter("mergepathd_panics_recovered_total", "", "Request-induced panics recovered inside rounds (per-job 500s).", float64(snap.Pool.PanicsRecovered))

	// Load balance: the paper's Theorem 5 check. 1.0 = perfect.
	w.Gauge("mergepathd_round_imbalance", "", "Max/min elements per worker of the latest balanced round (Theorem 5 predicts ~1.0).", snap.Pool.LastRound.Imbalance)
	w.Gauge("mergepathd_round_imbalance_max", "", "Worst per-round load-imbalance ratio since start.", snap.Pool.ImbalanceMax)
	w.Gauge("mergepathd_round_imbalance_mean", "", "Mean per-round load-imbalance ratio since start.", snap.Pool.ImbalanceMean)
	w.Gauge("mergepathd_round_workers", "", "Workers engaged by the latest balanced round.", float64(snap.Pool.LastRound.Workers))
	w.Gauge("mergepathd_round_min_elements", "", "Fewest elements any worker merged in the latest balanced round.", float64(snap.Pool.LastRound.Min))
	w.Gauge("mergepathd_round_max_elements", "", "Most elements any worker merged in the latest balanced round.", float64(snap.Pool.LastRound.Max))

	// Overload controller: state machine (one-hot by state plus the raw
	// code), congestion signal, and the computed Retry-After.
	ov := snap.Overload
	for _, st := range []string{"healthy", "degraded", "shedding"} {
		v := 0.0
		if ov.State == st {
			v = 1
		}
		w.Gauge("mergepathd_overload_state", `state="`+st+`"`,
			"Overload state machine, one-hot: 1 on the series matching the current state.", v)
	}
	w.Gauge("mergepathd_overload_state_code", "", "Overload state as a number: 0 healthy, 1 degraded, 2 shedding.", float64(ov.StateCode))
	w.Gauge("mergepathd_overload_target_seconds", "", "CoDel queue-sojourn target.", secs(ov.TargetMS))
	w.Gauge("mergepathd_overload_sojourn_min_seconds", "", "Minimum queue sojourn of the last completed interval with traffic (the congestion signal).", secs(ov.SojournMinMS))
	w.Gauge("mergepathd_overload_backlog_elements", "", "Elements admitted but not yet finished.", float64(ov.BacklogElements))
	w.Gauge("mergepathd_overload_drain_elements_per_second", "", "EWMA element throughput of completed rounds.", ov.DrainElemsPerSec)
	w.Gauge("mergepathd_overload_retry_after_seconds", "", "Computed Retry-After currently quoted on 429/503 responses.", float64(ov.RetryAfterSeconds))
	w.Counter("mergepathd_overload_shed_total", "", "Admissions refused by the overload controller while shedding.", float64(ov.ShedTotal))
	w.Counter("mergepathd_overload_transitions_total", `to="degraded"`, "Overload state transitions, by destination state.", float64(ov.TransitionsDegraded))
	w.Counter("mergepathd_overload_transitions_total", `to="shedding"`, "Overload state transitions, by destination state.", float64(ov.TransitionsShedding))
	w.Counter("mergepathd_overload_transitions_total", `to="healthy"`, "Overload state transitions, by destination state.", float64(ov.TransitionsHealthy))

	// Wire formats: body counts by negotiated encoding and 415 refusals.
	w.Counter("mergepathd_wire_requests_total", `format="json"`, "Request bodies on the /v1 endpoints, by negotiated format.", float64(snap.Wire.RequestsJSON))
	w.Counter("mergepathd_wire_requests_total", `format="binary"`, "Request bodies on the /v1 endpoints, by negotiated format.", float64(snap.Wire.RequestsBinary))
	w.Counter("mergepathd_wire_responses_total", `format="json"`, "Responses written on the /v1 endpoints, by format.", float64(snap.Wire.ResponsesJSON))
	w.Counter("mergepathd_wire_responses_total", `format="binary"`, "Responses written on the /v1 endpoints, by format.", float64(snap.Wire.ResponsesBinary))
	w.Counter("mergepathd_unsupported_media_type_total", "", "Requests refused with 415 for an unknown or endpoint-inapplicable Content-Type.", float64(snap.Wire.UnsupportedMediaType))

	// K-way merges: round count and the co-rank window balance — the
	// Theorem 5 check extended to k runs (docs/KWAY.md).
	kw := snap.KWay
	w.Counter("mergepathd_kway_merges_total", "", "K-way merge rounds executed.", float64(kw.MergesCoRank))
	w.Gauge("mergepathd_kway_last_k", "", "Run count of the latest k-way merge round.", float64(kw.LastK))
	w.Gauge("mergepathd_kway_last_workers", "", "Parallel windows of the latest k-way merge round.", float64(kw.LastWorkers))
	w.Gauge("mergepathd_kway_imbalance_max", "", "Worst per-window load-imbalance ratio of any multi-window k-way round since start (~1.0 by construction).", kw.ImbalanceMax)
	w.Gauge("mergepathd_kway_imbalance_mean", "", "Mean per-window load-imbalance ratio of multi-window k-way rounds since start.", kw.ImbalanceMean)

	// Jobs subsystem: submission outcomes, occupancy, spill usage and
	// the external-sort engine's block I/O.
	if j := snap.Jobs; j != nil {
		w.Counter("mergepathd_jobs_submitted_total", "", "Jobs admitted since start.", float64(j.Submitted))
		w.Counter("mergepathd_jobs_completed_total", "", "Jobs that finished successfully.", float64(j.Completed))
		w.Counter("mergepathd_jobs_failed_total", "", "Jobs that ended in failure.", float64(j.Failed))
		w.Counter("mergepathd_jobs_canceled_total", "", "Jobs canceled before completion.", float64(j.Canceled))
		w.Counter("mergepathd_jobs_expired_total", "", "Finished jobs whose files the TTL sweeper removed.", float64(j.Expired))
		w.Counter("mergepathd_jobs_shed_busy_total", "", "Job submissions refused because the job queue was full.", float64(j.ShedBusy))
		w.Gauge("mergepathd_jobs_running", "", "Jobs executing right now.", float64(j.Running))
		w.Gauge("mergepathd_jobs_pending", "", "Jobs waiting in the bounded job queue.", float64(j.Pending))
		w.Gauge("mergepathd_jobs_queue_capacity", "", "Job queue bound; a full queue sheds with 503.", float64(j.QueueCapacity))
		w.Gauge("mergepathd_jobs_max_concurrent", "", "Bound on jobs executing at once.", float64(j.MaxConcurrent))
		w.Gauge("mergepathd_jobs_tracked", "", "Job records currently retained (all states).", float64(j.Tracked))
		w.Gauge("mergepathd_jobs_datasets", "", "Datasets currently stored in the spill directory.", float64(j.Datasets))
		w.Gauge("mergepathd_jobs_dataset_bytes", "", "Bytes of dataset payload currently on disk.", float64(j.DatasetBytes))
		w.Gauge("mergepathd_jobs_memory_records", "", "Per-job in-memory budget in records (the external sort's M).", float64(j.MemoryRecords))
		w.Counter("mergepathd_jobs_block_reads_total", "", "External-sort block reads accumulated across finished jobs.", float64(j.BlockReads))
		w.Counter("mergepathd_jobs_block_writes_total", "", "External-sort block writes accumulated across finished jobs.", float64(j.BlockWrites))
		w.Counter("mergepathd_jobs_gc_sweeps_total", "", "TTL garbage-collection passes.", float64(j.GCSweeps))
		w.Counter("mergepathd_jobs_files_removed_total", "", "Spill files deleted (GC, cancel cleanup, dataset deletion).", float64(j.FilesRemoved))
		w.Counter("mergepathd_jobs_result_aborts_total", "", "Job result streams that died mid-body (client disconnect or read failure).", float64(j.ResultAborts))

		// Durability: write-ahead journal, fsync discipline, restart
		// recovery and checksum verdicts (docs/DURABILITY.md).
		d := j.Durability
		enabled := 0.0
		if d.JournalEnabled {
			enabled = 1
		}
		w.Gauge("mergepathd_jobs_journal_enabled", "", "1 when the write-ahead manifest journal is active (-journal with a real -spill-dir).", enabled)
		for _, pol := range []string{"always", "state", "never"} {
			v := 0.0
			if d.FsyncPolicy == pol {
				v = 1
			}
			w.Gauge("mergepathd_jobs_fsync_policy", `policy="`+pol+`"`,
				"Configured fsync policy, one-hot: 1 on the series matching -fsync-policy.", v)
		}
		w.Counter("mergepathd_jobs_journal_appends_total", "", "Records appended to the write-ahead manifest journal.", float64(d.JournalAppends))
		w.Counter("mergepathd_jobs_journal_replayed_total", "", "Journal records replayed by the startup recovery pass.", float64(d.JournalReplayed))
		w.Counter("mergepathd_jobs_fsyncs_total", "", "fsync calls issued by the jobs subsystem (journal, data seals, directory).", float64(d.Fsyncs))
		w.Counter("mergepathd_jobs_recovered_datasets_total", "", "Datasets re-registered intact by the startup recovery pass.", float64(d.RecoveredDatasets))
		w.Counter("mergepathd_jobs_recovered_results_total", "", "Done jobs whose results survived restart and were re-registered.", float64(d.RecoveredResults))
		w.Counter("mergepathd_jobs_recovered_failed_total", "", "In-flight jobs marked failed(restart) by the recovery pass.", float64(d.RecoveredFailed))
		w.Counter("mergepathd_jobs_orphans_removed_total", "", "Unaccounted spill files removed by the recovery pass.", float64(d.OrphansRemoved))
		w.Counter("mergepathd_jobs_corruption_detected_total", "", "Checksum and integrity failures detected (corruption is failed loudly, never streamed).", float64(d.CorruptionDetected))
	}

	// Per-endpoint request counters and latency summaries.
	for _, name := range sortedKeys(snap.Endpoints) {
		e := snap.Endpoints[name]
		lbl := `endpoint="` + name + `"`
		w.Counter("mergepathd_requests_total", lbl, "Requests finished, by endpoint (all statuses).", float64(e.Count))
		w.Counter("mergepathd_request_errors_total", lbl+`,class="4xx"`, "Error responses, by endpoint and status class.", float64(e.Err4xx))
		w.Counter("mergepathd_request_errors_total", lbl+`,class="5xx"`, "Error responses, by endpoint and status class.", float64(e.Err5xx))
		w.LatencySummary("mergepathd_request_latency_seconds", lbl,
			"Latency of successful requests, by endpoint.", e.Latency)
	}

	// Per-stage span latency summaries.
	for _, name := range sortedStageNames() {
		h, ok := snap.Stages[name]
		if !ok {
			continue
		}
		w.LatencySummary("mergepathd_stage_latency_seconds", `stage="`+name+`"`,
			"Per-request lifecycle stage timings (partition/merge are cumulative worker time, the rest wall time).", h)
	}
	return w.String()
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	_, _ = w.Write([]byte(renderProm(s.Snapshot())))
}
