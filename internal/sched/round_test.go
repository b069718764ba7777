package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerGauge counts the workers of running jobs and keeps the peak.
type workerGauge struct {
	running, peak atomic.Int64
}

// enter adds a job's workers and holds them briefly, so that jobs a
// round starts together overlap.
func (g *workerGauge) enter(workers int) {
	now := g.running.Add(int64(workers))
	for {
		peak := g.peak.Load()
		if now <= peak || g.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	time.Sleep(200 * time.Microsecond)
	g.running.Add(-int64(workers))
}

func TestRoundCapsConcurrentWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 33} {
			var g workerGauge
			var mu sync.Mutex
			ran := make(map[int]int)
			Round(n, w, func(job, workers int) {
				if workers < 1 {
					t.Errorf("w=%d n=%d: job %d got %d workers", w, n, job, workers)
				}
				g.enter(workers)
				mu.Lock()
				ran[job]++
				mu.Unlock()
			})
			if peak := g.peak.Load(); peak > int64(w) {
				t.Errorf("w=%d n=%d: %d workers ran at once", w, n, peak)
			}
			if len(ran) != n {
				t.Errorf("w=%d n=%d: %d distinct jobs ran", w, n, len(ran))
			}
			for job, c := range ran {
				if job < 0 || job >= n || c != 1 {
					t.Errorf("w=%d n=%d: job %d ran %d times", w, n, job, c)
				}
			}
		}
	}
}

func TestRoundSpreadsWorkersOverFewJobs(t *testing.T) {
	got := make([]int, 3)
	Round(3, 8, func(job, workers int) { got[job] = workers })
	for job, workers := range got {
		if workers != 8/3 {
			t.Errorf("job %d: %d workers, want %d", job, workers, 8/3)
		}
	}
}

func TestRoundPanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for w=0")
		}
	}()
	Round(1, 0, func(int, int) {})
}
