package router

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/kway"
	"mergepath/internal/promtext"
	"mergepath/internal/server"
	"mergepath/internal/stats"
	"mergepath/internal/wire"
)

// metrics is the router's observability registry, mirroring the node
// daemon's shape: fixed per-endpoint key set, per-stage histograms,
// plus the routing-specific counters (scatter fan-out, reroutes).
type metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	stages    map[string]*stats.Histogram

	routed     atomic.Uint64 // requests forwarded whole to one backend
	scattered  atomic.Uint64 // merges split across backends
	rerouted   atomic.Uint64 // failovers: retries against a different backend
	failed     atomic.Uint64 // requests the router answered 502/503 for
	binaryHops atomic.Uint64 // scatter sub-requests encoded as binary frames

	gatherMerges atomic.Uint64 // gather recombinations executed

	mu             sync.Mutex
	fanout         map[int]uint64 // scatter requests by window count
	gatherImbMax   float64        // worst gather window imbalance seen
	gatherImbSum   float64        // running sum of gather imbalance ratios
	gatherImbCount uint64         // multi-window gathers contributing to gatherImbSum
}

type endpointMetrics struct {
	count   atomic.Uint64
	err4xx  atomic.Uint64
	err5xx  atomic.Uint64
	latency stats.Histogram // successful requests only
}

// endpointNames is the fixed metric key set; one entry per /v1 route.
var endpointNames = []string{"merge", "sort", "mergek", "setops", "select"}

func newMetrics() *metrics {
	m := &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics, len(endpointNames)),
		stages:    make(map[string]*stats.Histogram, len(stageNames)),
		fanout:    make(map[int]uint64),
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointMetrics{}
	}
	for _, name := range stageNames {
		m.stages[name] = &stats.Histogram{}
	}
	return m
}

// observe records one finished request against an endpoint. Only 2xx
// requests feed the latency histogram (same policy as the node daemon).
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	e, ok := m.endpoints[endpoint]
	if !ok {
		return
	}
	e.count.Add(1)
	switch {
	case status >= 500:
		e.err5xx.Add(1)
	case status >= 400:
		e.err4xx.Add(1)
	default:
		e.latency.Observe(d)
	}
}

// observeSpans folds one request's spans into the per-stage histograms.
func (m *metrics) observeSpans(spans []server.Span) {
	for _, sp := range spans {
		if h, ok := m.stages[sp.Stage]; ok {
			h.Observe(sp.Dur)
		}
	}
}

// noteScatter records one completed scatter: its fan-out (window count)
// and — via the gather stage histogram fed by observeSpans — its gather
// latency.
func (m *metrics) noteScatter(parts int, _ time.Duration) {
	m.scattered.Add(1)
	m.mu.Lock()
	m.fanout[parts]++
	m.mu.Unlock()
}

// noteGather records one gather recombination: the count plus — when
// the merge ran more than one co-rank window — the window imbalance,
// the k-way analogue of the node's round-balance metrics.
func (m *metrics) noteGather(st kway.Stats) {
	m.gatherMerges.Add(1)
	if st.Workers < 2 {
		return
	}
	m.mu.Lock()
	if st.Imbalance > m.gatherImbMax {
		m.gatherImbMax = st.Imbalance
	}
	m.gatherImbSum += st.Imbalance
	m.gatherImbCount++
	m.mu.Unlock()
}

// BackendSnapshot is one backend's row in the router's /metrics JSON:
// the poller's view (state, load signals) plus the traffic this router
// sent it and the state of the resilient client's circuit breakers.
type BackendSnapshot struct {
	// URL is the backend's base URL.
	URL string `json:"url"`
	// State is the routing tier the poller currently assigns: healthy,
	// degraded, shedding, draining or down.
	State string `json:"state"`
	// BacklogElements is the backend's last-reported element backlog —
	// the least-loaded routing signal.
	BacklogElements int64 `json:"backlog_elements"`
	// QueueDepth is the backend's last-reported admission-queue depth.
	QueueDepth int `json:"queue_depth"`
	// DrainElemsPerSec is the backend's last-reported EWMA throughput.
	DrainElemsPerSec float64 `json:"drain_elems_per_sec"`
	// Requests counts whole- and sub-requests this router sent it.
	Requests uint64 `json:"requests"`
	// Errors counts transport failures and retryable-status responses
	// (429/5xx) among those requests.
	Errors uint64 `json:"errors"`
	// Breakers is the per-endpoint circuit-breaker state of this
	// backend's resilience client (path → closed/open/half-open).
	Breakers map[string]string `json:"breakers,omitempty"`
}

// RoutingSnapshot aggregates the router's own decisions.
type RoutingSnapshot struct {
	// Routed counts requests forwarded whole to a single backend.
	Routed uint64 `json:"routed"`
	// Scattered counts merges split across backends with the
	// co-ranking cut.
	Scattered uint64 `json:"scattered"`
	// Rerouted counts failovers — attempts retried against a different
	// backend after the first pick failed.
	Rerouted uint64 `json:"rerouted"`
	// Failed counts requests the router itself answered 502/503 for
	// because no backend produced a usable response.
	Failed uint64 `json:"failed"`
	// BinaryHops counts scatter sub-requests sent as binary frames to
	// backends advertising the wire format — on an all-current fleet it
	// tracks the scatter volume; a persistent gap means some backends
	// are still being fed JSON (mixed-version degrade).
	BinaryHops uint64 `json:"binary_hops"`
	// Fanout is the scatter fan-out distribution: window count →
	// number of scattered requests that used it.
	Fanout map[int]uint64 `json:"fanout,omitempty"`
	// GatherMerges counts gather recombinations of scatter partials.
	GatherMerges uint64 `json:"gather_merges"`
	// GatherImbalanceMax is the worst gather window imbalance ratio
	// since start (~1.0 by construction; 0 until a gather runs more
	// than one co-rank window).
	GatherImbalanceMax float64 `json:"gather_imbalance_max"`
	// GatherImbalanceMean is the mean multi-window gather imbalance.
	GatherImbalanceMean float64 `json:"gather_imbalance_mean"`
}

// MetricsSnapshot is the router's /metrics JSON document; the same
// numbers back /metrics/prom.
type MetricsSnapshot struct {
	// UptimeSeconds is seconds since the router started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Routing aggregates routing decisions and failovers.
	Routing RoutingSnapshot `json:"routing"`
	// Backends has one row per configured backend, poll state included.
	Backends []BackendSnapshot `json:"backends"`
	// Endpoints is per-/v1-route counters and latency, keyed like the
	// node daemon's endpoints map.
	Endpoints map[string]server.EndpointSnapshot `json:"endpoints"`
	// Stages is per-stage span latency (route/forward/scatter/gather
	// plus decode/write), all wall time.
	Stages map[string]stats.HistogramSnapshot `json:"stages"`
}

func (m *metrics) snapshot(reg *registry) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Routing: RoutingSnapshot{
			Routed:       m.routed.Load(),
			Scattered:    m.scattered.Load(),
			Rerouted:     m.rerouted.Load(),
			Failed:       m.failed.Load(),
			BinaryHops:   m.binaryHops.Load(),
			GatherMerges: m.gatherMerges.Load(),
		},
		Endpoints: make(map[string]server.EndpointSnapshot, len(m.endpoints)),
		Stages:    make(map[string]stats.HistogramSnapshot, len(m.stages)),
	}
	m.mu.Lock()
	if len(m.fanout) > 0 {
		s.Routing.Fanout = make(map[int]uint64, len(m.fanout))
		for k, v := range m.fanout {
			s.Routing.Fanout[k] = v
		}
	}
	s.Routing.GatherImbalanceMax = m.gatherImbMax
	if m.gatherImbCount > 0 {
		s.Routing.GatherImbalanceMean = m.gatherImbSum / float64(m.gatherImbCount)
	}
	m.mu.Unlock()
	for name, e := range m.endpoints {
		s.Endpoints[name] = server.EndpointSnapshot{
			Count:   e.count.Load(),
			Err4xx:  e.err4xx.Load(),
			Err5xx:  e.err5xx.Load(),
			Latency: e.latency.Snapshot(),
		}
	}
	for name, h := range m.stages {
		s.Stages[name] = h.Snapshot()
	}
	for _, b := range reg.backends {
		b.mu.Lock()
		bs := BackendSnapshot{
			URL:        b.url,
			State:      stateName(b.tierLocked()),
			QueueDepth: b.health.QueueDepth,
		}
		if b.health.Overload != nil {
			bs.BacklogElements = b.health.Overload.BacklogElements
			bs.DrainElemsPerSec = b.health.Overload.DrainElemsPerSec
		}
		b.mu.Unlock()
		bs.Requests = b.requests.Load()
		bs.Errors = b.errors.Load()
		if states := b.client.BreakerStates(); len(states) > 0 {
			bs.Breakers = states
		}
		s.Backends = append(s.Backends, bs)
	}
	return s
}

// RouterHealth is the router's GET /healthz document: its own liveness
// plus the fleet view, so one poll answers "can this tier take
// traffic" and "how much of the fleet is behind it".
type RouterHealth struct {
	// Status is "ok" while at least one backend is routable outside the
	// down tier, "degraded" when only shedding/draining backends
	// remain, and "down" (with a 503) when every backend is down.
	Status string `json:"status"`
	// Role is "router" (the node daemon reports "node").
	Role string `json:"role"`
	// Backends is the configured backend count.
	Backends int `json:"backends"`
	// BackendStates counts backends by routing tier name.
	BackendStates map[string]int `json:"backend_states"`
	// Formats lists the request body media types this router accepts on
	// /v1/* (same contract as the node daemon's /healthz formats field).
	Formats []string `json:"formats,omitempty"`
	// WireBackends counts backends whose last poll advertised the
	// binary frame format — fleet operators watch this converge to
	// Backends during a rollout.
	WireBackends int `json:"wire_backends"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := RouterHealth{
		Role:          "router",
		Backends:      len(rt.reg.backends),
		BackendStates: make(map[string]int),
		Formats:       []string{"application/json", wire.ContentType},
	}
	best := tierDown
	for _, b := range rt.reg.backends {
		t := b.tier()
		h.BackendStates[stateName(t)]++
		if t < best {
			best = t
		}
		if b.speaksWire() {
			h.WireBackends++
		}
	}
	status := http.StatusOK
	switch {
	case best <= tierDegraded:
		h.Status = "ok"
	case best < tierDown:
		h.Status = "degraded"
	default:
		h.Status = "down"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rt.m.snapshot(rt.reg))
}

// renderProm renders the router's Prometheus exposition from a
// snapshot, in the node daemon's dialect with a mergerouter_ prefix.
func renderProm(snap MetricsSnapshot) string {
	w := promtext.NewWriter()

	w.Gauge("mergerouter_uptime_seconds", "", "Seconds since the router started.", snap.UptimeSeconds)
	w.Counter("mergerouter_routed_total", "", "Requests forwarded whole to a single backend.", float64(snap.Routing.Routed))
	w.Counter("mergerouter_scattered_total", "", "Merges split across backends with the co-ranking cut.", float64(snap.Routing.Scattered))
	w.Counter("mergerouter_rerouted_total", "", "Failover attempts retried against a different backend.", float64(snap.Routing.Rerouted))
	w.Counter("mergerouter_failed_total", "", "Requests answered 502/503 by the router itself.", float64(snap.Routing.Failed))
	w.Counter("mergerouter_binary_hops_total", "", "Scatter sub-requests encoded as binary frames (wire-speaking backends).", float64(snap.Routing.BinaryHops))

	// Gather recombination: count and co-rank window balance
	// (docs/KWAY.md).
	w.Counter("mergerouter_gather_merges_total", "", "Gather recombinations of scatter partials.", float64(snap.Routing.GatherMerges))
	w.Gauge("mergerouter_gather_imbalance_max", "", "Worst gather window load-imbalance ratio since start (~1.0 by construction).", snap.Routing.GatherImbalanceMax)
	w.Gauge("mergerouter_gather_imbalance_mean", "", "Mean multi-window gather load-imbalance ratio since start.", snap.Routing.GatherImbalanceMean)

	// Scatter fan-out distribution, one labelled series per observed
	// window count.
	fanouts := make([]int, 0, len(snap.Routing.Fanout))
	for k := range snap.Routing.Fanout {
		fanouts = append(fanouts, k)
	}
	sort.Ints(fanouts)
	for _, k := range fanouts {
		w.Counter("mergerouter_scatter_fanout_total", `windows="`+strconv.Itoa(k)+`"`,
			"Scattered requests by window count.", float64(snap.Routing.Fanout[k]))
	}

	// Fleet view: one state gauge (one-hot by tier) and the polled load
	// signals per backend.
	for _, b := range snap.Backends {
		lbl := `backend="` + b.URL + `"`
		for t := tierHealthy; t <= tierDown; t++ {
			v := 0.0
			if stateName(t) == b.State {
				v = 1
			}
			w.Gauge("mergerouter_backend_state", lbl+`,state="`+stateName(t)+`"`,
				"Backend routing tier, one-hot: 1 on the series matching the current state.", v)
		}
		w.Gauge("mergerouter_backend_backlog_elements", lbl, "Backend's last-reported element backlog.", float64(b.BacklogElements))
		w.Gauge("mergerouter_backend_queue_depth", lbl, "Backend's last-reported admission-queue depth.", float64(b.QueueDepth))
		w.Gauge("mergerouter_backend_drain_elements_per_second", lbl, "Backend's last-reported EWMA element throughput.", b.DrainElemsPerSec)
		w.Counter("mergerouter_backend_requests_total", lbl, "Whole- and sub-requests this router sent the backend.", float64(b.Requests))
		w.Counter("mergerouter_backend_errors_total", lbl, "Transport failures and retryable-status responses from the backend.", float64(b.Errors))
		open := 0
		for _, st := range b.Breakers {
			if st != "closed" {
				open++
			}
		}
		w.Gauge("mergerouter_backend_breakers_open", lbl, "Backend circuit breakers currently open or half-open.", float64(open))
	}

	// Per-endpoint request counters and latency summaries.
	names := make([]string, 0, len(snap.Endpoints))
	for name := range snap.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := snap.Endpoints[name]
		lbl := `endpoint="` + name + `"`
		w.Counter("mergerouter_requests_total", lbl, "Requests finished, by endpoint (all statuses).", float64(e.Count))
		w.Counter("mergerouter_request_errors_total", lbl+`,class="4xx"`, "Error responses, by endpoint and status class.", float64(e.Err4xx))
		w.Counter("mergerouter_request_errors_total", lbl+`,class="5xx"`, "Error responses, by endpoint and status class.", float64(e.Err5xx))
		w.LatencySummary("mergerouter_request_latency_seconds", lbl,
			"Latency of successful requests, by endpoint.", e.Latency)
	}

	// Per-stage span latency summaries, lifecycle order.
	for _, name := range stageNames {
		h, ok := snap.Stages[name]
		if !ok {
			continue
		}
		w.LatencySummary("mergerouter_stage_latency_seconds", `stage="`+name+`"`,
			"Router lifecycle stage timings (all wall time; gather is the k-way recombination).", h)
	}
	return w.String()
}

func (rt *Router) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	_, _ = w.Write([]byte(renderProm(rt.m.snapshot(rt.reg))))
}
