package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"mergepath/internal/server"
	"mergepath/internal/stats"
)

// bulkParams shapes the bulk-binary workloads: large requests of one
// kind in binary frames both ways, above CoalesceLimit, so the work
// sits in core, psort or kway. Each kind is a workload of its own, so
// its CPU time per element is gated on its own: a kernel change that
// helps sort but hurts merge cannot hide in a mix.
type bulkParams struct {
	elems     int // output elements of every request
	k         int // lists per mergek request
	runMean   int // mean run length of the log-shard merge inputs
	variants  int // distinct inputs, cycled
	warmOps   int
	tracedOps int
}

var bulkDefaults = bulkParams{
	elems: 256 << 10, k: 32, runMean: 2048, variants: 2, warmOps: 4, tracedOps: 30,
}

// bulkSLO is the latency limit of slo_met_ratio per kind: 1.25 times
// the p90 of two 20 s calibration runs on a 2-CPU host (merge 8.5 ms,
// sort 39.3 ms, mergek 26.4 ms), rounded up, so a request a quarter
// slower than the calibration's slow tenth misses it.
var bulkSLO = map[string]time.Duration{
	"merge":  11 * time.Millisecond,
	"sort":   50 * time.Millisecond,
	"mergek": 33 * time.Millisecond,
}

// newBulk builds the bulk-binary workload of one request kind: merge,
// sort or mergek.
func newBulk(kind string, p bulkParams, seed int64) *workload {
	stream := map[string]uint64{"merge": 2, "sort": 4, "mergek": 5}[kind]
	rng := newRNG(seed, stream)
	var reqs []request
	var in layerInputs
	add := func(body []byte, out []int64) {
		reqs = append(reqs, request{kind: kind, path: "/v1/" + kind, body: body, frame: true,
			want: frame(out), elems: len(out)})
		in.frames = append(in.frames, body)
		in.results = append(in.results, out)
	}
	var shape string
	for v := 0; v < p.variants; v++ {
		switch kind {
		case "merge":
			// Two "log shards", long alternating runs of increasing
			// timestamps, so the merge path has long straight segments.
			a, b := logShards(rng, p.elems, p.runMean)
			in.runs = append(in.runs, [2][]int64{a, b})
			add(frame(a, b), sortedConcat(a, b))
			shape = fmt.Sprintf("two log shards, runs of mean %d", p.runMean)
		case "sort":
			// Uniform values, whose internal merges interleave densely.
			data := make([]int64, p.elems)
			for i := range data {
				data[i] = rng.Int64()
			}
			in.sorts = append(in.sorts, data)
			half := p.elems / 2
			in.uniform = append(in.uniform, [2][]int64{sortedConcat(data[:half]), sortedConcat(data[half:])})
			add(frame(data), sortedConcat(data))
			shape = "uniform int64"
		case "mergek":
			lists := make([][]int64, p.k)
			for j := range lists {
				lists[j] = sortedUniform(rng, (j+1)*p.elems/p.k-j*p.elems/p.k, 1<<62)
			}
			in.kway = append(in.kway, lists)
			add(frame(lists...), sortedConcat(lists...))
			shape = fmt.Sprintf("%d uniform lists", p.k)
		}
	}
	slo := bulkSLO[kind]
	return &workload{
		name: workloadBulk + "-" + kind,
		config: func(dir string) server.Config {
			return server.Config{Jobs: jobsOff(dir)}
		},
		drive: func(e *env, d time.Duration, n int, traced bool) []op {
			cl := newClient()
			defer cl.CloseIdleConnections()
			var buf bytes.Buffer
			return closedLoop(d, n, func(i int) op {
				return do(cl, e.base, &reqs[i%len(reqs)], time.Time{}, traceID(traced, i), &buf)
			})
		},
		warmOps:   p.warmOps,
		tracedOps: p.tracedOps,
		slo:       slo,
		layers:    in,
		params: map[string]any{
			"endpoint": "/v1/" + kind, "elems_per_request": p.elems, "input": shape,
			"variants": p.variants, "callers": 1, "slo_ms": stats.Millis(slo),
		},
	}
}

// closedLoop runs one operation at a time, the i-th by calling next(i),
// until n are done (n > 0) or d has passed.
func closedLoop(d time.Duration, n int, next func(i int) op) []op {
	var ops []op
	start := time.Now()
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Since(start) < d); i++ {
		ops = append(ops, next(i))
	}
	return ops
}

// logShards splits n increasing timestamps into two sorted inputs by
// alternating runs of mean length runMean.
func logShards(rng *rand.Rand, n, runMean int) (a, b []int64) {
	t := int64(rng.IntN(1000))
	toA := true
	for len(a)+len(b) < n {
		run := 1 + int(rng.ExpFloat64()*float64(runMean))
		for j := 0; j < run && len(a)+len(b) < n; j++ {
			t += 1 + int64(rng.IntN(1000))
			if toA {
				a = append(a, t)
			} else {
				b = append(b, t)
			}
		}
		toA = !toA
	}
	return a, b
}
