// Command mergeload is a load generator for mergepathd: it drives
// configurable closed-loop (fixed concurrency) or open-loop (fixed
// arrival rate) merge/sort/k-way traffic at a daemon, then prints a
// throughput/latency table and, with -json, a machine-readable summary
// (BENCH_server.json in the Makefile) so the service's scaling curve is
// part of the benchmark trajectory.
//
// With no -url it self-serves: an in-process server on a loopback
// listener, so `make loadtest` measures the full HTTP stack with zero
// setup.
//
// Usage:
//
//	mergeload -duration 5s -conc 16 -size 256 -dist skew
//	mergeload -url http://localhost:8080 -rate 2000 -endpoint mergek
//	mergeload -json BENCH_server.json
//	mergeload -chaos -duration 3s            # self-serve with fault injection
//	mergeload -resilient -retries 3 -hedge-after 20ms   # retrying/hedging client
//	mergeload -resilient -overload-target 2ms -overload-interval 50ms  # drive the shed loop
//
// -chaos runs the self-served daemon with the fault injector enabled
// (panics, errors and latency on every op) and verifies at the end that
// the daemon survived: /healthz still answers 200 and /metrics shows the
// recovered-panic count. It exits nonzero if the daemon died — the
// executable form of the panic-isolation guarantee.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/fault"
	"mergepath/internal/harness"
	"mergepath/internal/jobs"
	"mergepath/internal/overload"
	"mergepath/internal/resilience"
	"mergepath/internal/server"
	"mergepath/internal/stats"
)

type options struct {
	url       string
	duration  time.Duration
	warmup    time.Duration
	conc      int
	rate      float64
	endpoint  string
	size      int
	dist      string
	seed      int64
	jsonPath  string
	workers   int
	queue     int
	chaos     bool
	chaosSpec string

	overloadTarget   time.Duration
	overloadInterval time.Duration

	resilient  bool
	retries    int
	hedgeAfter time.Duration
	budgetRate float64

	jobsMode    bool
	jobsRecords int
	jobsCount   int
	jobsMemory  int

	maxBody  int64
	wireMode bool
	wireSize int
}

// defaultChaosSpec is the -chaos fault mix: enough panics and errors to
// exercise every recovery path, with latency jitter to shake the batch
// window, while most requests still succeed.
const defaultChaosSpec = "*:panic=0.02,error=0.02,latency=1ms@0.2"

// canned is a pre-marshalled request body (generation must not sit on
// the measured path).
type canned struct {
	path  string
	body  []byte
	ctype string // request Content-Type and Accept; empty = application/json
	elems int    // elements the server must produce for this request
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "daemon base URL (empty = in-process self-serve)")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "measured run length")
	flag.DurationVar(&o.warmup, "warmup", 500*time.Millisecond, "untimed warmup length")
	flag.IntVar(&o.conc, "conc", 16, "closed-loop concurrency (outstanding requests)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	flag.StringVar(&o.endpoint, "endpoint", "mix", "merge | sort | mergek | setops | mix")
	flag.IntVar(&o.size, "size", 256, "mean elements per input array")
	flag.StringVar(&o.dist, "dist", "skew", "request size distribution: fixed | uniform | skew")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed")
	flag.StringVar(&o.jsonPath, "json", "", "write machine-readable results to this file")
	flag.IntVar(&o.workers, "workers", 0, "self-serve: pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 256, "self-serve: admission queue depth")
	flag.BoolVar(&o.chaos, "chaos", false, "self-serve with fault injection, verify the daemon survives")
	flag.StringVar(&o.chaosSpec, "chaos-spec", defaultChaosSpec, "fault spec used by -chaos")
	flag.DurationVar(&o.overloadTarget, "overload-target", 5*time.Millisecond, "self-serve: CoDel queue-sojourn target")
	flag.DurationVar(&o.overloadInterval, "overload-interval", 100*time.Millisecond, "self-serve: overload evaluation interval")
	flag.BoolVar(&o.resilient, "resilient", false, "drive traffic through the resilient client (retries, Retry-After, circuit breaker)")
	flag.IntVar(&o.retries, "retries", 2, "resilient: max retries per request")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 0, "resilient: duplicate a request if no response after this long (0 = off)")
	flag.Float64Var(&o.budgetRate, "retry-budget", 50, "resilient: retry token refill rate per second")
	flag.BoolVar(&o.jobsMode, "jobs", false, "drive the async dataset/jobs API instead of the request endpoints: upload, submit sortfile jobs, poll, stream + verify results")
	flag.IntVar(&o.jobsRecords, "jobs-records", 1<<18, "jobs mode: dataset size in 8-byte records")
	flag.IntVar(&o.jobsCount, "jobs-count", 4, "jobs mode: sortfile jobs to run against the dataset")
	flag.IntVar(&o.jobsMemory, "jobs-memory", 1<<14, "jobs mode, self-serve: per-job memory budget in records (keep it well under -jobs-records to force external merge passes)")
	flag.Int64Var(&o.maxBody, "max-body", 0, "self-serve: request body cap in bytes (0 = server default; raise for -size beyond ~500k elements of JSON)")
	flag.BoolVar(&o.wireMode, "wire", false, "after the main run, compare JSON vs binary-frame decode cost against a dedicated in-process daemon (adds a wire section to -json output)")
	flag.IntVar(&o.wireSize, "wire-size", 1<<20, "wire comparison: total elements per merge request")
	flag.Parse()

	if o.chaos && o.url != "" {
		fatalf("-chaos needs the in-process self-served daemon; drop -url (or start mergepathd with -fault instead)")
	}

	var srv *server.Server
	base := o.url
	if base == "" {
		cfg := server.Config{
			Workers:      o.workers,
			QueueDepth:   o.queue,
			MaxBodyBytes: o.maxBody,
			Overload: overload.Config{
				Target:   o.overloadTarget,
				Interval: o.overloadInterval,
			},
			Jobs: jobs.Config{
				MemoryRecords: o.jobsMemory,
				MaxConcurrent: 2,
				MaxQueued:     16,
			},
		}
		if o.chaos {
			inj, err := fault.Parse(o.chaosSpec, o.seed)
			if err != nil {
				fatalf("-chaos-spec: %v", err)
			}
			cfg.Fault = inj
			fmt.Printf("chaos mode: injecting %q\n", o.chaosSpec)
		}
		srv = server.New(cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		// Drain the server too (not just the listener) so the jobs
		// manager's private spill dir is removed, whatever path exits.
		defer func() {
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Drain(dctx)
		}()
		base = ts.URL
		fmt.Printf("self-serving on %s (workers=%d queue=%d)\n", base, srv.Workers(), o.queue)
	}

	reqs := buildRequests(o)
	client := &http.Client{Timeout: 10 * time.Second}
	var rclient *resilience.Client
	if o.resilient {
		rclient = resilience.New(client, resilience.Config{
			MaxRetries: o.retries,
			HedgeAfter: o.hedgeAfter,
			Budget:     resilience.BudgetConfig{RatePerSec: o.budgetRate},
			Seed:       o.seed,
		})
		fmt.Printf("resilient client: retries=%d hedge-after=%v budget=%.0f/s\n",
			o.retries, o.hedgeAfter, o.budgetRate)
	}

	target := detectTarget(base, client)
	fmt.Printf("target: %s at %s\n", target, base)

	if o.jobsMode {
		jb := runJobsBench(base, client, o)
		if o.jsonPath != "" {
			writeJobsJSON(o, jb, base, client, target)
		}
		return
	}

	run(base, client, rclient, reqs, o.warmup, o, nil) // warmup, result discarded
	timeline := newStateTimeline()
	res := run(base, client, rclient, reqs, o.duration, o, timeline)

	printTable(o, res)
	if target != "router" {
		// The per-round balance report is node-specific; a router's
		// /metrics speaks a different schema.
		printServerReport(fetchServerSnapshot(base, client))
	}
	if rclient != nil {
		printClientReport(rclient)
	}
	timeline.print()
	var wdoc *wireBenchDoc
	if o.wireMode {
		wdoc = runWireCompare(o)
	}
	if o.jsonPath != "" {
		var snap *server.MetricsSnapshot
		if target != "router" {
			snap = fetchServerSnapshot(base, client)
		}
		writeJSON(o, res, base, client, snap, rclient, timeline, target, wdoc)
	}
	if o.chaos {
		verifyChaos(srv, base, client, res)
	}
}

// printClientReport summarizes the resilient client's view of the run:
// how hard it had to work to deliver the goodput the table reports.
func printClientReport(rc *resilience.Client) {
	st := rc.StatsSnapshot()
	fmt.Printf("client: attempts=%d retries=%d retry_after_honored=%d hedges=%d hedge_wins=%d"+
		" breaker(opens=%d closes=%d rejects=%d) budget_denied=%d\n",
		st.Attempts, st.Retries, st.RetryAfterHonored, st.Hedges, st.HedgeWins,
		st.BreakerOpens, st.BreakerCloses, st.BreakerRejects, st.BudgetDenied)
	if states := rc.BreakerStates(); len(states) > 0 {
		fmt.Printf("client breakers: %v\n", states)
	}
}

// stateChange is one observed server overload-state transition, relative
// to the start of the measured run.
type stateChange struct {
	OffsetMS float64 `json:"offset_ms"`
	State    string  `json:"state"`
}

// stateTimeline polls /healthz during the measured run and records the
// degradation-state transitions the server reported.
type stateTimeline struct {
	mu      sync.Mutex
	changes []stateChange
	stop    chan struct{}
	done    chan struct{}
}

func newStateTimeline() *stateTimeline {
	return &stateTimeline{stop: make(chan struct{}), done: make(chan struct{})}
}

// watch polls /healthz every 100ms until stopped, appending a change
// whenever the reported status differs from the last one seen.
func (tl *stateTimeline) watch(base string, client *http.Client, start time.Time) {
	defer close(tl.done)
	last := ""
	for {
		select {
		case <-tl.stop:
			return
		case <-time.After(100 * time.Millisecond):
		}
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			continue
		}
		var health struct {
			Status string `json:"status"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&health)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if health.Status != "" && health.Status != last {
			last = health.Status
			tl.mu.Lock()
			tl.changes = append(tl.changes, stateChange{
				OffsetMS: float64(time.Since(start)) / float64(time.Millisecond),
				State:    health.Status,
			})
			tl.mu.Unlock()
		}
	}
}

func (tl *stateTimeline) halt() {
	close(tl.stop)
	<-tl.done
}

func (tl *stateTimeline) snapshot() []stateChange {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]stateChange(nil), tl.changes...)
}

func (tl *stateTimeline) print() {
	changes := tl.snapshot()
	if len(changes) == 0 {
		return
	}
	parts := make([]string, len(changes))
	for i, c := range changes {
		parts[i] = fmt.Sprintf("%.0fms:%s", c.OffsetMS, c.State)
	}
	fmt.Printf("server state timeline: %s\n", strings.Join(parts, " -> "))
}

// detectTarget asks /healthz which tier the run is driving: mergepathd
// reports role "node", mergerouter reports "router". Silent or roleless
// targets default to "node" (daemons predating the role field).
func detectTarget(base string, client *http.Client) string {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return "node"
	}
	defer resp.Body.Close()
	var h struct {
		Role string `json:"role"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Role == "" {
		return "node"
	}
	return h.Role
}

// fetchServerSnapshot pulls the daemon's own /metrics view of the run;
// nil when the daemon is unreachable or speaks a different schema.
func fetchServerSnapshot(base string, client *http.Client) *server.MetricsSnapshot {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return &snap
}

// printServerReport prints the server-side balance view: how many
// coalesced and whole-pool rounds ran and the per-worker load-imbalance
// ratios — the live check of the paper's Theorem 5 guarantee (≈1.0 for
// whole-pool rounds).
func printServerReport(snap *server.MetricsSnapshot) {
	if snap == nil {
		return
	}
	lr := snap.Pool.LastRound
	fmt.Printf("server: rounds batch=%d run=%d; imbalance last=%.3f max=%.3f mean=%.3f"+
		" (last round: %d workers, %d..%d elems/worker)\n",
		snap.Pool.BatchRounds, snap.Pool.RunRounds,
		lr.Imbalance, snap.Pool.ImbalanceMax, snap.Pool.ImbalanceMean,
		lr.Workers, lr.Min, lr.Max)
}

// verifyChaos is the pass/fail gate of -chaos: after a full run under
// fault injection the daemon must still be alive and must have actually
// recovered panics (a chaos run where nothing fired proves nothing).
func verifyChaos(srv *server.Server, base string, client *http.Client, res *result) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		fatalf("chaos: daemon unreachable after run: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("chaos: healthz = %d after run, daemon did not survive", resp.StatusCode)
	}
	snap := srv.Snapshot()
	fmt.Printf("chaos: daemon survived; panics_recovered=%d canceled=%d shed_at_flush=%d faulted_5xx=%d\n",
		snap.Pool.PanicsRecovered, snap.Queue.Canceled, snap.Queue.ShedAtFlush, res.faulted.Load())
	if snap.Pool.PanicsRecovered == 0 {
		fatalf("chaos: no panics were injected+recovered; raise -duration or the spec's panic probability")
	}
	if res.ok.Load() == 0 {
		fatalf("chaos: no request succeeded")
	}
}

// result aggregates one run.
type result struct {
	elapsed        time.Duration
	ok, shed, errs atomic.Int64
	throttled      atomic.Int64 // 429s from the overload controller
	rejected       atomic.Int64 // local fail-fast rejects (breaker open)
	faulted        atomic.Int64 // 5xx from injected faults (chaos mode)
	elems          atomic.Int64 // output elements across ok requests
	dropped        atomic.Int64 // open loop: arrivals skipped, all slots busy
	latency        stats.Histogram
	perEndpoint    map[string]*stats.Histogram
	perEndpointOK  map[string]*atomic.Int64
	perStage       map[string]*stats.Histogram // from Server-Timing headers
	mu             sync.Mutex
}

// refused returns the count of outcomes the service turned away (503
// shed + 429 throttled + local breaker rejects) and the total completed
// outcomes (open-loop drops excluded: those never left the client).
func (r *result) refused() (refused, total int64) {
	refused = r.shed.Load() + r.throttled.Load() + r.rejected.Load()
	total = refused + r.ok.Load() + r.errs.Load() + r.faulted.Load()
	return refused, total
}

// rejectionRatio is the fraction of completed outcomes the service
// refused — the load-shedding headline number for a run.
func (r *result) rejectionRatio() float64 {
	refused, total := r.refused()
	if total == 0 {
		return 0
	}
	return float64(refused) / float64(total)
}

func newResult() *result {
	return &result{
		perEndpoint:   map[string]*stats.Histogram{},
		perEndpointOK: map[string]*atomic.Int64{},
		perStage:      map[string]*stats.Histogram{},
	}
}

func (r *result) endpointSlot(path string) (*stats.Histogram, *atomic.Int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.perEndpoint[path]
	if !ok {
		h = &stats.Histogram{}
		r.perEndpoint[path] = h
		r.perEndpointOK[path] = &atomic.Int64{}
	}
	return h, r.perEndpointOK[path]
}

func (r *result) stageSlot(stage string) *stats.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.perStage[stage]
	if !ok {
		h = &stats.Histogram{}
		r.perStage[stage] = h
	}
	return h
}

// parseServerTiming extracts per-stage durations from a Server-Timing
// header value ("stage;dur=1.23, ..." — dur in milliseconds, per the
// header's RFC and the daemon's span exposition). Repeated stage names
// accumulate.
func parseServerTiming(h string) map[string]time.Duration {
	if h == "" {
		return nil
	}
	out := map[string]time.Duration{}
	for _, part := range strings.Split(h, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if len(fields) < 2 {
			continue
		}
		name := strings.TrimSpace(fields[0])
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(f), "dur="); ok {
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += time.Duration(ms * float64(time.Millisecond))
				}
			}
		}
	}
	return out
}

// buildRequests pre-marshals a pool of request bodies matching the
// endpoint mix and size distribution.
func buildRequests(o options) []canned {
	rng := rand.New(rand.NewSource(o.seed))
	sizeOf := func() int {
		switch o.dist {
		case "fixed":
			return o.size
		case "uniform":
			return 1 + rng.Intn(2*o.size)
		default: // "skew": mostly small, a heavy tail of 16x requests
			if rng.Intn(20) == 0 {
				return o.size * 16
			}
			return 1 + rng.Intn(o.size)
		}
	}
	sorted := func(n int) []int64 {
		s := make([]int64, n)
		v := int64(0)
		for i := range s {
			v += rng.Int63n(8)
			s[i] = v
		}
		return s
	}
	endpoints := []string{o.endpoint}
	if o.endpoint == "mix" {
		// Weighted toward merge: the coalescing path is the one under test.
		endpoints = []string{"merge", "merge", "merge", "merge", "sort", "mergek", "setops"}
	}
	const poolSize = 256
	reqs := make([]canned, 0, poolSize)
	for i := 0; i < poolSize; i++ {
		ep := endpoints[rng.Intn(len(endpoints))]
		n := sizeOf()
		var body any
		var path string
		elems := 0
		switch ep {
		case "merge":
			a, b := sorted(n), sorted(n)
			body, path, elems = server.MergeRequest{A: a, B: b}, "/v1/merge", 2*n
		case "sort":
			data := make([]int64, 2*n)
			for j := range data {
				data[j] = rng.Int63n(1 << 30)
			}
			body, path, elems = server.SortRequest{Data: data}, "/v1/sort", 2*n
		case "mergek":
			lists := make([][]int64, 4)
			for j := range lists {
				lists[j] = sorted(n / 2)
				elems += len(lists[j])
			}
			body, path = server.MergeKRequest{Lists: lists}, "/v1/mergek"
		case "setops":
			ops := []string{"union", "intersect", "diff"}
			body, path, elems = server.SetOpsRequest{Op: ops[rng.Intn(3)], A: sorted(n), B: sorted(n)}, "/v1/setops", 2*n
		default:
			fatalf("unknown endpoint %q", ep)
		}
		buf, err := json.Marshal(body)
		if err != nil {
			fatalf("marshal: %v", err)
		}
		reqs = append(reqs, canned{path: path, body: buf, elems: elems})
	}
	return reqs
}

// run drives traffic for d and returns the aggregate. When rclient is
// non-nil requests go through the resilient client (retries, honored
// Retry-After, optional hedging, circuit breaker); tl, when non-nil,
// watches the server's overload state for the duration.
func run(base string, client *http.Client, rclient *resilience.Client, reqs []canned, d time.Duration, o options, tl *stateTimeline) *result {
	res := newResult()
	stop := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	start := time.Now()
	if tl != nil {
		go tl.watch(base, client, start)
		defer tl.halt()
	}

	fire := func(c canned) {
		h, okCount := res.endpointSlot(c.path)
		ctype := c.ctype
		if ctype == "" {
			ctype = "application/json"
		}
		t0 := time.Now()
		var resp *http.Response
		var err error
		if rclient != nil {
			var hdr http.Header
			if c.ctype != "" {
				// Symmetric format: a binary request also asks for a
				// binary response, so both directions are measured.
				hdr = http.Header{"Accept": []string{c.ctype}}
			}
			resp, err = rclient.PostHeaders(context.Background(), base+c.path, ctype, hdr, c.body)
		} else {
			req, rerr := http.NewRequest(http.MethodPost, base+c.path, bytes.NewReader(c.body))
			if rerr != nil {
				res.errs.Add(1)
				return
			}
			req.Header.Set("Content-Type", ctype)
			if c.ctype != "" {
				req.Header.Set("Accept", c.ctype)
			}
			resp, err = client.Do(req)
		}
		lat := time.Since(t0)
		if err != nil {
			if errors.Is(err, resilience.ErrBreakerOpen) {
				// Fail-fast local reject: the breaker answers in
				// nanoseconds, so a closed loop would spin through
				// millions of rejects and distort the error count.
				// Count it once and idle briefly, like a polite client.
				res.rejected.Add(1)
				time.Sleep(2 * time.Millisecond)
				return
			}
			res.errs.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			res.ok.Add(1)
			res.elems.Add(int64(c.elems))
			res.latency.Observe(lat)
			h.Observe(lat)
			okCount.Add(1)
			for stage, d := range parseServerTiming(resp.Header.Get("Server-Timing")) {
				res.stageSlot(stage).Observe(d)
			}
		case resp.StatusCode == http.StatusServiceUnavailable:
			res.shed.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests:
			res.throttled.Add(1)
		case o.chaos && resp.StatusCode >= http.StatusInternalServerError:
			// Chaos mode injects 500s on purpose; count them apart from
			// real errors so the summary distinguishes havoc from bugs.
			res.faulted.Add(1)
		default:
			res.errs.Add(1)
		}
	}

	var wg sync.WaitGroup
	if o.rate <= 0 {
		// Closed loop: conc workers, each back-to-back.
		for w := 0; w < o.conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.seed + int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					fire(reqs[rng.Intn(len(reqs))])
				}
			}(w)
		}
	} else {
		// Open loop: Poisson-ish fixed-interval arrivals; a bounded slot
		// pool keeps the client itself from unbounded goroutine growth —
		// arrivals finding no free slot are counted as dropped.
		slots := make(chan struct{}, 4*o.conc)
		interval := time.Duration(float64(time.Second) / o.rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		rng := rand.New(rand.NewSource(o.seed))
	loop:
		for {
			select {
			case <-stop:
				break loop
			case <-ticker.C:
				select {
				case slots <- struct{}{}:
					wg.Add(1)
					go func(c canned) {
						defer wg.Done()
						defer func() { <-slots }()
						fire(c)
					}(reqs[rng.Intn(len(reqs))])
				default:
					res.dropped.Add(1)
				}
			}
		}
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

func printTable(o options, res *result) {
	mode := "closed"
	if o.rate > 0 {
		mode = fmt.Sprintf("open @ %.0f req/s", o.rate)
	}
	agg := res.latency.Snapshot()
	t := harness.NewTable(
		fmt.Sprintf("mergeload: %s loop, conc=%d, dist=%s, size=%d, %v",
			mode, o.conc, o.dist, o.size, res.elapsed.Round(time.Millisecond)),
		"endpoint", "ok", "req/s", "Melem/s", "p50", "p95", "p99", "max")
	secs := res.elapsed.Seconds()
	for path, h := range res.perEndpoint {
		s := h.Snapshot()
		okN := res.perEndpointOK[path].Load()
		t.Addf(path, okN, fmt.Sprintf("%.0f", float64(okN)/secs), "-",
			fmtDur(s.P50), fmtDur(s.P95), fmtDur(s.P99), fmtDur(s.Max))
	}
	t.Addf("TOTAL", res.ok.Load(),
		fmt.Sprintf("%.0f", float64(res.ok.Load())/secs),
		fmt.Sprintf("%.2f", float64(res.elems.Load())/secs/1e6),
		fmtDur(agg.P50), fmtDur(agg.P95), fmtDur(agg.P99), fmtDur(agg.Max))
	fmt.Println(t)
	printStageTable(res)
	fmt.Printf("shed(503)=%d throttled(429)=%d breaker_rejected=%d errors=%d dropped=%d faulted(5xx)=%d\n",
		res.shed.Load(), res.throttled.Load(), res.rejected.Load(), res.errs.Load(), res.dropped.Load(), res.faulted.Load())
	refused, total := res.refused()
	fmt.Printf("rejection ratio: %.2f%% (%d of %d completed outcomes refused: 503+429+breaker)\n",
		100*res.rejectionRatio(), refused, total)
}

// printStageTable prints the per-stage latency view assembled from the
// daemon's Server-Timing response headers: where each request's time
// went (queueing, coalescing, co-rank search, merging, writing).
// Partition/merge rows are cumulative worker time, the rest wall time.
func printStageTable(res *result) {
	if len(res.perStage) == 0 {
		return
	}
	t := harness.NewTable("per-stage spans (from Server-Timing)",
		"stage", "count", "p50", "p95", "p99", "max")
	order := server.StageNames()
	for stage := range res.perStage {
		known := false
		for _, s := range order {
			if s == stage {
				known = true
				break
			}
		}
		if !known {
			order = append(order, stage)
		}
	}
	for _, stage := range order {
		h, ok := res.perStage[stage]
		if !ok {
			continue
		}
		s := h.Snapshot()
		t.Addf(stage, s.Count, fmtDur(s.P50), fmtDur(s.P95), fmtDur(s.P99), fmtDur(s.Max))
	}
	fmt.Println(t)
}

// benchDoc is the BENCH_server.json schema; keep fields append-only so
// future PRs can diff runs.
type benchDoc struct {
	Config struct {
		Mode     string  `json:"mode"`
		Rate     float64 `json:"rate_rps,omitempty"`
		Conc     int     `json:"conc"`
		Endpoint string  `json:"endpoint"`
		Size     int     `json:"size"`
		Dist     string  `json:"dist"`
		Duration string  `json:"duration"`
		Workers  int     `json:"workers,omitempty"`
		// Target is what tier the run drove, from /healthz's role field:
		// "node" (mergepathd) or "router" (mergerouter). Runs against
		// different tiers must not be compared as if same-machine.
		Target string `json:"target"`
	} `json:"config"`
	Totals struct {
		OK          int64   `json:"ok"`
		Shed        int64   `json:"shed_503"`
		Throttled   int64   `json:"throttled_429"`
		Rejected    int64   `json:"breaker_rejected,omitempty"`
		Errors      int64   `json:"errors"`
		Dropped     int64   `json:"dropped"`
		Throughput  float64 `json:"req_per_s"`
		ElemPerSec  float64 `json:"elem_per_s"`
		ElapsedSecs float64 `json:"elapsed_s"`
		// RejectionRatio is refused outcomes (503 + 429 + breaker
		// rejects) over all completed outcomes.
		RejectionRatio float64 `json:"rejection_ratio"`
	} `json:"totals"`
	Latency     stats.HistogramSnapshot            `json:"latency"`
	PerEndpoint map[string]stats.HistogramSnapshot `json:"per_endpoint"`
	// Stages aggregates the daemon's per-request Server-Timing spans
	// observed by the client: where request time went, by lifecycle
	// stage.
	Stages map[string]stats.HistogramSnapshot `json:"stages,omitempty"`
	// Imbalance echoes the server's last-round per-worker load summary;
	// ImbalanceMax/Mean are its running per-round aggregates. Theorem 5
	// predicts ~1.0 for uncoalesced whole-pool rounds.
	Imbalance     *stats.LoadSummary `json:"last_round_imbalance,omitempty"`
	ImbalanceMax  float64            `json:"imbalance_max,omitempty"`
	ImbalanceMean float64            `json:"imbalance_mean,omitempty"`
	// Client reports the resilient client's retry/hedge/breaker counters
	// when -resilient drove the run.
	Client *resilience.Stats `json:"client,omitempty"`
	// OverloadTimeline is the server's degradation-state transitions
	// observed over the measured run (polled from /healthz).
	OverloadTimeline []stateChange   `json:"overload_timeline,omitempty"`
	ServerMetrics    json.RawMessage `json:"server_metrics,omitempty"`
	// Jobs is the -jobs mode section: out-of-core sortfile jobs with
	// per-phase timings (queue wait, copy-in, run formation, merge).
	Jobs *jobsBenchDoc `json:"jobs,omitempty"`
	// Wire is the -wire section: JSON vs binary-frame decode cost on
	// large merges, measured against a dedicated in-process daemon.
	Wire *wireBenchDoc `json:"wire,omitempty"`
}

func writeJSON(o options, res *result, base string, client *http.Client, snap *server.MetricsSnapshot, rclient *resilience.Client, tl *stateTimeline, target string, wdoc *wireBenchDoc) {
	var doc benchDoc
	doc.Wire = wdoc
	doc.Config.Target = target
	doc.Config.Mode = "closed"
	if o.rate > 0 {
		doc.Config.Mode = "open"
		doc.Config.Rate = o.rate
	}
	doc.Config.Conc = o.conc
	doc.Config.Endpoint = o.endpoint
	doc.Config.Size = o.size
	doc.Config.Dist = o.dist
	doc.Config.Duration = o.duration.String()
	doc.Totals.OK = res.ok.Load()
	doc.Totals.Shed = res.shed.Load()
	doc.Totals.Throttled = res.throttled.Load()
	doc.Totals.Rejected = res.rejected.Load()
	doc.Totals.Errors = res.errs.Load()
	doc.Totals.Dropped = res.dropped.Load()
	doc.Totals.RejectionRatio = res.rejectionRatio()
	doc.Totals.ElapsedSecs = res.elapsed.Seconds()
	if doc.Totals.ElapsedSecs > 0 {
		doc.Totals.Throughput = float64(doc.Totals.OK) / doc.Totals.ElapsedSecs
		doc.Totals.ElemPerSec = float64(res.elems.Load()) / doc.Totals.ElapsedSecs
	}
	doc.Latency = res.latency.Snapshot()
	doc.PerEndpoint = map[string]stats.HistogramSnapshot{}
	for path, h := range res.perEndpoint {
		doc.PerEndpoint[path] = h.Snapshot()
	}
	if len(res.perStage) > 0 {
		doc.Stages = map[string]stats.HistogramSnapshot{}
		for stage, h := range res.perStage {
			doc.Stages[stage] = h.Snapshot()
		}
	}
	if snap != nil {
		lr := snap.Pool.LastRound
		doc.Imbalance = &lr
		doc.ImbalanceMax = snap.Pool.ImbalanceMax
		doc.ImbalanceMean = snap.Pool.ImbalanceMean
	}
	if rclient != nil {
		st := rclient.StatsSnapshot()
		doc.Client = &st
	}
	doc.OverloadTimeline = tl.snapshot()
	// Attach the server's own view of the run when reachable.
	if resp, err := client.Get(base + "/metrics"); err == nil {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		doc.ServerMetrics = raw
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("marshal results: %v", err)
	}
	if err := os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", o.jsonPath, err)
	}
	fmt.Printf("wrote %s\n", o.jsonPath)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mergeload: "+format+"\n", args...)
	os.Exit(1)
}
