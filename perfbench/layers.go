package main

import (
	"bytes"
	"slices"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/kway"
	"mergepath/internal/psort"
	"mergepath/internal/wire"
)

// layerInputs are a workload's own inputs, kept for the layer replays.
// A layer a workload does not exercise has no inputs and reports 0.
type layerInputs struct {
	uniform [][2][]int64 // merge pairs whose values interleave densely
	runs    [][2][]int64 // merge pairs made of long runs
	sorts   [][]int64    // unsorted arrays
	kway    [][][]int64  // sorted list sets
	frames  [][]byte     // request frames
	results [][]int64    // response arrays
}

// replayPasses is how many times each layer replay repeats its pass
// over the inputs; it reports the median pass.
const replayPasses = 15

// partitionCalls is how many times one core.partition pass partitions
// each pair: a single call takes well under a microsecond.
const partitionCalls = 100

// timedPasses runs pass replayPasses times, records each as a span
// named name, and returns the median of the durations pass reports
// (the part it timed).
func timedPasses(tr *tracer, name string, pass func() time.Duration) time.Duration {
	ds := make([]time.Duration, replayPasses)
	for i := range ds {
		t0 := time.Now()
		ds[i] = pass()
		tr.add(0, name, "replay", t0, time.Now())
	}
	return medianDur(ds)
}

// replay times each layer's public entry point on the workload's inputs
// at the server's worker count p, writing the per-layer figures into m.
// It reports false if any replayed output differs from the reference.
func replay(in layerInputs, p int, tr *tracer, m map[string]float64) bool {
	ok := true
	merges := func(name string, pairs [][2][]int64) {
		if len(pairs) == 0 {
			return
		}
		outs := make([][]int64, len(pairs))
		elems := 0
		for i, pr := range pairs {
			outs[i] = make([]int64, len(pr[0])+len(pr[1]))
			elems += len(outs[i])
		}
		d := timedPasses(tr, name, func() time.Duration {
			t0 := time.Now()
			for i, pr := range pairs {
				core.ParallelMerge(pr[0], pr[1], outs[i], p)
			}
			return time.Since(t0)
		})
		m[name+"_ns_per_elem"] = float64(d) / float64(elems)
		for i, pr := range pairs {
			ok = ok && slices.Equal(outs[i], sortedConcat(pr[0], pr[1]))
		}
	}
	merges("core.merge_uniform", in.uniform)
	merges("core.merge_runs", in.runs)

	if pairs := append(slices.Clone(in.uniform), in.runs...); len(pairs) > 0 {
		d := timedPasses(tr, "core.partition", func() time.Duration {
			t0 := time.Now()
			for range partitionCalls {
				for _, pr := range pairs {
					core.Partition(pr[0], pr[1], p)
				}
			}
			return time.Since(t0)
		})
		m["core.partition_ns"] = float64(d) / float64(partitionCalls*len(pairs))
	}

	if len(in.sorts) > 0 {
		bufs := make([][]int64, len(in.sorts))
		elems := 0
		for i, s := range in.sorts {
			bufs[i] = make([]int64, len(s))
			elems += len(s)
		}
		d := timedPasses(tr, "psort.sort", func() time.Duration {
			var d time.Duration
			for i, s := range in.sorts {
				copy(bufs[i], s)
				t0 := time.Now()
				psort.Sort(bufs[i], p)
				d += time.Since(t0)
			}
			return d
		})
		m["psort.sort_ns_per_elem"] = float64(d) / float64(elems)
		for i, s := range in.sorts {
			ok = ok && slices.Equal(bufs[i], sortedConcat(s))
		}
	}

	if len(in.kway) > 0 {
		dsts := make([][]int64, len(in.kway))
		elems := 0
		for i, lists := range in.kway {
			n := 0
			for _, l := range lists {
				n += len(l)
			}
			dsts[i] = make([]int64, n)
			elems += n
		}
		var imb float64
		d := timedPasses(tr, "kway.merge", func() time.Duration {
			t0 := time.Now()
			for i, lists := range in.kway {
				_, st := kway.MergeIntoStats(dsts[i], lists, p, kway.StrategyAuto)
				imb = max(imb, st.Imbalance)
			}
			return time.Since(t0)
		})
		m["kway.merge_ns_per_elem"] = float64(d) / float64(elems)
		m["kway.imbalance_max"] = max(m["kway.imbalance_max"], imb)
		for i, lists := range in.kway {
			ok = ok && slices.Equal(dsts[i], sortedConcat(lists...))
		}
	}

	if len(in.frames) > 0 {
		elems := 0
		d := timedPasses(tr, "wire.decode", func() time.Duration {
			elems = 0
			t0 := time.Now()
			for _, fr := range in.frames {
				f, err := wire.Decode(bytes.NewReader(fr), wire.Limits{})
				if err != nil {
					ok = false
					continue
				}
				elems += f.Elements()
				f.Release()
			}
			return time.Since(t0)
		})
		m["wire.decode_ns_per_elem"] = float64(d) / float64(max(elems, 1))
	}

	if len(in.results) > 0 {
		var buf []byte
		elems := 0
		for _, r := range in.results {
			elems += len(r)
		}
		d := timedPasses(tr, "wire.encode", func() time.Duration {
			t0 := time.Now()
			for _, r := range in.results {
				buf = wire.AppendInt64(buf[:0], r)
			}
			return time.Since(t0)
		})
		m["wire.encode_ns_per_elem"] = float64(d) / float64(elems)
		for _, r := range in.results {
			ok = ok && bytes.Equal(wire.AppendInt64(nil, r), frame(r))
		}
	}
	return ok
}
