package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(100-i) * time.Millisecond // 100..1 ms, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 90100*time.Microsecond {
		t.Fatalf("p90 of 1..100 ms = %v, %v; want 90.1ms (10 beyond), true", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 100 samples has 1 beyond it; want it refused")
	}
	if _, ok := percentile(xs[:19], 0.50); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it; want it refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestPerSecondFigures(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	ph := &phase{start: t0, end: at(3.2), ops: []op{
		{due: at(0.5), sent: at(0.5), end: at(2.5), elems: 400, ok: true}, // 100, 200, 100
		{due: at(0.9), sent: at(1), end: at(1.5), elems: 50, ok: true},
		{due: at(2), sent: at(2), end: at(3.1), elems: 1100, ok: true}, // 1000 in s2, rest past the last whole second
		{due: at(0), sent: at(0), end: at(3), elems: 999},              // failed: not counted
	}}
	got := throughputPerSecond(ph)
	want := []float64{100, 250, 1100}
	if len(got) != len(want) {
		t.Fatalf("throughput windows = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("throughput windows = %v, want %v", got, want)
		}
	}
	lat := latencyPerSecond(ph)
	slices.Sort(lat)
	if want := []time.Duration{1100 * time.Millisecond, 1300 * time.Millisecond}; !slices.Equal(lat, want) { // s0: median(2000, 600); s2: 1100
		t.Fatalf("latency windows = %v, want %v", lat, want)
	}
}

func TestHeapPeakOverOperationWindows(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	// Three sequential 0.7 s jobs, one short trailing request.
	ops := []op{
		{sent: at(0), end: at(0.7)},
		{sent: at(0.7), end: at(1.4)},
		{sent: at(1.4), end: at(2.1)},
		{sent: at(2.1), end: at(2.3)},
	}
	ws := opWindows(ops, time.Second)
	want := [][2]time.Time{{at(0), at(1.4)}, {at(1.4), at(2.3)}}
	if len(ws) != 1 || ws[0] != want[0] {
		t.Fatalf("windows = %v, want only %v (the 0.9 s tail is dropped)", ws, want[:1])
	}
	if ws := opWindows(ops[:1], time.Second); len(ws) != 1 || ws[0] != [2]time.Time{at(0), at(0.7)} {
		t.Fatalf("a single short operation gives windows %v, want its own span", ws)
	}
	ops = append(ops, op{sent: at(2.4), end: at(3.5)})
	ws = opWindows(ops, time.Second)
	want = [][2]time.Time{{at(0), at(1.4)}, {at(1.4), at(2.4)}, {at(2.4), at(3.5)}}
	if !slices.Equal(ws, want) {
		t.Fatalf("windows = %v, want %v", ws, want)
	}
	// Base 10; window peaks 50, 25 and 30, the last right at its end;
	// readings outside every window do not count.
	samples := []heapSample{
		{at(0), 10}, {at(0.5), 50}, {at(1.39), 20}, {at(1.4), 25}, {at(3.49), 30}, {at(3.6), 99},
	}
	if got := heapPeak(samples, ops); got != 20 { // median(50, 25, 30) - 10
		t.Fatalf("heapPeak = %v, want 20", got)
	}
	if got := heapPeak(nil, ops); got != 0 {
		t.Fatalf("heapPeak of no readings = %v, want 0", got)
	}
}
