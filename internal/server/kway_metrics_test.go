package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"mergepath/internal/verify"
)

// TestKWayMetricsSurfaces drives /v1/mergek with a merge large enough
// to cut several co-rank windows and checks all three observability
// surfaces agree: the kway block on /metrics, the mergepathd_kway_*
// series on /metrics/prom and the kway block on /healthz.
func TestKWayMetricsSurfaces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	rng := rand.New(rand.NewSource(51))
	lists := make([][]int64, 6)
	var all []int64
	for i := range lists {
		lists[i] = sortedInt64(rng, 1500)
		all = append(all, lists[i]...)
	}
	var got MergeKResponse
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: lists}, &got); code != http.StatusOK {
		t.Fatalf("mergek status %d", code)
	}
	if !verify.Sorted(got.Result) || !verify.SameMultiset(got.Result, all) {
		t.Fatal("mergek result is not the sorted union of its lists")
	}

	var snap MetricsSnapshot
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.KWay.MergesCoRank != 1 || snap.KWay.MergesHeap != 0 || snap.KWay.MergesTree != 0 {
		t.Fatalf("kway merge counters: %+v", snap.KWay)
	}
	if snap.KWay.LastK != len(lists) {
		t.Fatalf("kway last_k %d, want %d", snap.KWay.LastK, len(lists))
	}
	if snap.KWay.LastWorkers != 4 {
		t.Fatalf("kway last_workers %d, want 4", snap.KWay.LastWorkers)
	}
	// The co-rank cut balances windows to within one element, so the
	// recorded imbalance must be ~1.0 — Theorem 5 extended to k runs.
	if snap.KWay.ImbalanceMax == 0 || snap.KWay.ImbalanceMax > 1.5 {
		t.Fatalf("kway imbalance_max %.3f", snap.KWay.ImbalanceMax)
	}
	// The window loads also feed the pool-wide round-balance metrics.
	if snap.Pool.ImbalanceMax == 0 {
		t.Fatal("co-rank loads did not reach the pool round metrics")
	}

	presp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	for _, series := range []string{
		"mergepathd_kway_merges_total 1",
		"mergepathd_kway_last_k 6",
		"mergepathd_kway_last_workers 4",
		"mergepathd_kway_imbalance_max 1",
	} {
		if !strings.Contains(string(prom), series) {
			t.Fatalf("prom exposition missing %q", series)
		}
	}
	if strings.Contains(string(prom), "mergepathd_kway_strategy") || strings.Contains(string(prom), `mergepathd_kway_merges_total{`) {
		t.Fatal("prom exposition still carries a per-strategy k-way series")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.KWay == nil || h.KWay.MergesCoRank != 1 || h.KWay.ImbalanceMax != snap.KWay.ImbalanceMax {
		t.Fatalf("healthz kway block: %+v", h.KWay)
	}
	if strings.Contains(string(body), "merges_heap") || strings.Contains(string(body), "merges_tree") {
		t.Fatalf("healthz carries the retired strategy counters: %s", body)
	}
}

// TestKWayAutoStrategyCounts checks a small mergek: it counts as one
// k-way round of one window, and a one-window round reaches neither the
// k-way imbalance aggregates nor the pool-wide round metrics.
func TestKWayAutoStrategyCounts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	if code := post(t, ts, "/v1/mergek", MergeKRequest{Lists: [][]int64{{1, 3}, {2}, {4}}}, nil); code != http.StatusOK {
		t.Fatalf("mergek status %d", code)
	}
	snap := s.Snapshot()
	if snap.KWay.MergesCoRank != 1 || snap.KWay.LastWorkers != 1 {
		t.Fatalf("small mergek should run one window: %+v", snap.KWay)
	}
	if snap.KWay.ImbalanceMax != 0 || snap.Pool.ImbalanceMax != 0 {
		t.Fatalf("one-window round fed the imbalance metrics: kway %.3f, pool %.3f", snap.KWay.ImbalanceMax, snap.Pool.ImbalanceMax)
	}
}
