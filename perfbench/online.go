package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/server"
	"mergepath/internal/stats"
)

// onlineParams shapes online-json: typical service traffic, an open loop
// at a fixed rate of small JSON requests that take the coalescing path.
type onlineParams struct {
	rate      float64 // requests per second
	conns     int     // client connections
	pool      int     // distinct pre-built requests, cycled
	median    int     // log-normal median of a request's elements
	sigma     float64 // log-normal shape
	maxElems  int     // size cap, below CoalesceLimit
	k         int     // lists per mergek request
	slo       time.Duration
	warmOps   int
	tracedOps int
}

// onlineDefaults: the rate, mix shares, median, cap, k and limit are the
// traffic as specified; sigma and the select/setops split are not. sigma
// = ln(32768/512)/3.09 = 1.35 makes the cap the 99.9th percentile, so
// the largest merge of the pool reaches it. Against sigma 1 it raised
// decode from 0.33 to 0.46 ms a request and turned 6 of ~357 mergek
// requests from heap to corank; coalesce wait stayed the largest share
// (1.0 ms of a 2.3 ms merge median). Splitting select and setops 15/0 or
// 0/15 instead of evenly moved no layer beyond run-to-run noise.
var onlineDefaults = onlineParams{
	rate: 600, conns: 2, pool: 1000, median: 512, sigma: 1.35, maxElems: 32 << 10, k: 8,
	slo: 20 * time.Millisecond, warmOps: 600, tracedOps: 2400,
}

// onlineMix is the request mix in pool shares (they sum to 1).
var onlineMix = []struct {
	kind  string
	share float64
}{{"merge", 0.50}, {"sort", 0.20}, {"mergek", 0.15}, {"select", 0.075}, {"setops", 0.075}}

func newOnline(p onlineParams, seed int64) *workload {
	rng := newRNG(seed, 1)
	var reqs []request
	var in layerInputs
	for _, m := range onlineMix {
		n := int(m.share*float64(p.pool) + 0.5)
		for i, size := range logNormalSizes(n, p.median, p.sigma, max(2, p.k), p.maxElems) {
			var rq request
			switch m.kind {
			case "merge":
				na := 1 + rng.IntN(size-1)
				a, b := sortedUniform(rng, na, 1e12), sortedUniform(rng, size-na, 1e12)
				in.uniform = append(in.uniform, [2][]int64{a, b})
				rq = jsonRequest("merge", map[string]any{"a": a, "b": b}, resultDoc{sortedConcat(a, b)})
			case "sort":
				data := make([]int64, size)
				for j := range data {
					data[j] = rng.Int64N(1e12)
				}
				in.sorts = append(in.sorts, data)
				rq = jsonRequest("sort", map[string]any{"data": data}, resultDoc{sortedConcat(data)})
			case "mergek":
				lists := make([][]int64, p.k)
				for j := range lists {
					lists[j] = sortedUniform(rng, (j+1)*size/p.k-j*size/p.k, 1e12)
				}
				in.kway = append(in.kway, lists)
				rq = jsonRequest("mergek", map[string]any{"lists": lists}, resultDoc{sortedConcat(lists...)})
			case "select":
				// A small value range makes ties, so the tie rule is checked.
				na := 1 + rng.IntN(size-1)
				a, b := sortedUniform(rng, na, int64(size)), sortedUniform(rng, size-na, int64(size))
				k := 1 + rng.IntN(size)
				ar, br, kth := selectRanks(a, b, k)
				rq = jsonRequest("select", map[string]any{"a": a, "b": b, "k": k}, selectDoc{ar, br, kth})
				rq.elems = 1
			case "setops":
				op := []string{"union", "intersect", "diff"}[i%3]
				var a, b, res []int64
				for len(res) == 0 { // an empty result would encode as null
					na := 1 + rng.IntN(size-1)
					a, b = sortedUniform(rng, na, int64(size)), sortedUniform(rng, size-na, int64(size))
					res = setOp(op, a, b)
				}
				rq = jsonRequest("setops", map[string]any{"op": op, "a": a, "b": b}, resultDoc{res})
			}
			reqs = append(reqs, rq)
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return &workload{
		name: workloadOnline,
		config: func(dir string) server.Config {
			return server.Config{Jobs: jobsOff(dir)}
		},
		drive: func(e *env, d time.Duration, n int, traced bool) []op {
			if n == 0 {
				n = int(p.rate * d.Seconds())
			}
			return openLoop(e, reqs, p.rate, p.conns, n, traced)
		},
		warmOps:   p.warmOps,
		tracedOps: p.tracedOps,
		slo:       p.slo,
		layers:    in,
		params: map[string]any{
			"rate_per_s": p.rate, "conns": p.conns, "pool": len(reqs), "size_median": p.median,
			"size_sigma": p.sigma, "size_max": p.maxElems, "mergek_k": p.k, "slo_ms": stats.Millis(p.slo),
			"mix": "merge 50%, sort 20%, mergek 15%, select 7.5%, setops 7.5%",
		},
	}
}

// jsonRequest builds a JSON request to /v1/<kind> whose 200 body is want.
func jsonRequest(kind string, body, want any) request {
	rq := request{kind: kind, path: "/v1/" + kind, body: jsonLine(body), want: jsonLine(want)}
	if d, ok := want.(resultDoc); ok {
		rq.elems = len(d.Result)
	}
	return rq
}

// traceID is the X-Request-Id of the i-th traced request, "" untraced.
func traceID(traced bool, i int) string {
	if !traced {
		return ""
	}
	return fmt.Sprintf("pb-%d", i)
}

// openLoop sends n requests, the i-th due at start+i/rate, over conns
// connections, cycling through reqs. Latency runs from the due instant,
// so a stall also delays (and is charged to) the requests queued behind
// it; op.sent-op.due is how late the generator sent each one.
func openLoop(e *env, reqs []request, rate float64, conns, n int, traced bool) []op {
	ops := make([]op, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ops[i] = do(cl, e.base, &reqs[i%len(reqs)], due, traceID(traced, i), &buf)
			}
		}()
	}
	wg.Wait()
	return ops
}
