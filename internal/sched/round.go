package sched

import (
	"sync"
	"sync/atomic"
)

// Round runs jobs 0..n-1 of one round — the independent pairwise merges
// of a merge-sort or merge-tree level — on at most w workers in total,
// and returns when all have finished. run(job, workers) performs one job
// and may itself use up to workers goroutines.
//
// With fewer jobs than workers, each job runs on its own goroutine with
// workers = w/n. Otherwise min(n, w) goroutines take jobs one at a time
// from a shared counter, each with workers = 1. Either way no more than
// w workers run at once, however many jobs the round holds. One worker
// runs the jobs in order on the calling goroutine. w < 1 panics.
func Round(n, w int, run func(job, workers int)) {
	if w < 1 {
		panic("sched: need at least one worker")
	}
	switch {
	case n <= 0:
	case n < w:
		per := w / n
		if n == 1 {
			run(0, per)
			return
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for job := 0; job < n; job++ {
			go func(job int) {
				defer wg.Done()
				run(job, per)
			}(job)
		}
		wg.Wait()
	case w == 1:
		for job := 0; job < n; job++ {
			run(job, 1)
		}
	default:
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					job := int(next.Add(1)) - 1
					if job >= n {
						return
					}
					run(job, 1)
				}
			}()
		}
		wg.Wait()
	}
}
