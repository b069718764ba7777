package main

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// Small versions of the three workloads, fast enough for go test.
var (
	smallOnline = onlineParams{rate: 400, conns: 2, pool: 40, median: 64, sigma: 1,
		maxElems: 1024, k: 8, slo: time.Second, tracedOps: 80}
	smallBulk = bulkParams{elems: 16 << 10, k: 32, runMean: 256, variants: 1, tracedOps: 6}
	smallJobs = jobsParams{records: 64 << 10, budgetDiv: 10, poll: time.Millisecond,
		slo: 10 * time.Second, tracedJobs: 2}
)

func startSmall(t *testing.T, w *workload) *env {
	t.Helper()
	e, _, err := setupServer(w.config, t.TempDir(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.stop(); err != nil {
			t.Error(err)
		}
	})
	return e
}

func TestCorruptResponseCountsAsFailed(t *testing.T) {
	w := newOnline(smallOnline, 7)
	e := startSmall(t, w)
	a, b := []int64{1, 3, 5, 7}, []int64{2, 3, 4}
	good := []request{
		jsonRequest("merge", map[string]any{"a": a, "b": b}, resultDoc{sortedConcat(a, b)}),
		{kind: "merge", path: "/v1/merge", body: frame(a, b), frame: true,
			want: frame(sortedConcat(a, b)), elems: len(a) + len(b)},
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	ph := &phase{}
	for _, rq := range good {
		if o := do(cl, e.base, &rq, time.Now(), "", &buf); !o.ok {
			t.Fatalf("%s (frame=%v): correct response not accepted", rq.kind, rq.frame)
		}
		bad := rq
		bad.want = slices.Clone(rq.want)
		bad.want[len(bad.want)-2] ^= 1
		o := do(cl, e.base, &bad, time.Now(), "", &buf)
		if o.ok || !o.mismatch {
			t.Fatalf("%s (frame=%v): response differing from the reference accepted", rq.kind, rq.frame)
		}
		ph.ops = append(ph.ops, o)
	}
	res := newResult(w, ph)
	if res.Failed != 2 || res.Attempted != 2 || res.Correct {
		t.Fatalf("result = %+v; want 2 failed of 2 and correct=false", res)
	}

	want := records([]int64{1, 2, 3})
	if same, mismatch := streamEqual(bytes.NewReader(want), want); !same || mismatch {
		t.Fatal("identical job result stream rejected")
	}
	flipped := slices.Clone(want)
	flipped[9] ^= 1
	if same, mismatch := streamEqual(bytes.NewReader(flipped), want); same || !mismatch {
		t.Fatal("corrupted job result stream accepted")
	}
	if same, _ := streamEqual(bytes.NewReader(want[:16]), want); same {
		t.Fatal("short job result stream accepted")
	}
}

// tracedCounts runs a workload's untraced and traced passes on a fresh
// server and returns the per-layer figures.
func tracedCounts(t *testing.T, w *workload) map[string]float64 {
	t.Helper()
	e := startSmall(t, w)
	base := measure(e, func() []op { return w.drive(e, 0, w.tracedOps, false) })
	tr := newTracer()
	traced := tracedPass(e, w, tr)
	if res := newResult(w, base, traced); res.Failed != 0 || !res.Correct {
		t.Fatalf("%s: %+v", w.name, res)
	}
	return layerMetrics(w, base, traced, tr.all())
}

func TestExactCountsRepeat(t *testing.T) {
	kwayCounts := []string{"kway.auto_heap", "kway.auto_tree", "kway.auto_corank"}
	for _, c := range []struct {
		make  func() *workload
		names []string
	}{
		{func() *workload { return newJobs(smallJobs, 3) }, []string{"extsort.runs", "extsort.merge_passes",
			"extsort.block_reads", "extsort.block_writes", "extsort.peak_buffer_records",
			"jobs.journal_appends", "jobs.fsyncs"}},
		{func() *workload { return newBulk("mergek", smallBulk, 3) }, kwayCounts},
		{func() *workload { return newOnline(smallOnline, 3) }, kwayCounts},
	} {
		w := c.make()
		first, second := tracedCounts(t, w), tracedCounts(t, c.make())
		var sum float64
		for _, name := range c.names {
			sum += first[name]
			if first[name] != second[name] {
				t.Errorf("%s: %s = %v then %v", w.name, name, first[name], second[name])
			}
		}
		if sum == 0 {
			t.Errorf("%s: every count of %v is 0", w.name, c.names)
		}
		if w.budget > 0 && first["extsort.peak_buffer_records"] > float64(w.budget) {
			t.Errorf("peak buffer %v records over the budget %d", first["extsort.peak_buffer_records"], w.budget)
		}
	}
}
