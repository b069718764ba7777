package psort

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/sched"
	"mergepath/internal/stats"
)

// cancelRunElems caps the initial run length of SortCtx so cancellation
// is observed between runs in phase 1 as well as between chunks in the
// phase-2 merges (core.ParallelMergeCtx). Matches core's chunking
// granularity.
const cancelRunElems = 1 << 16

// SortStats reports what an instrumented SortCtxStats run did: how the
// work decomposed (runs, merge rounds) and where the time went. RunSort
// and Search/Merge are cumulative worker time (summed across concurrent
// workers, not wall time), so Search/Merge is directly the partition
// overhead ratio the paper argues is negligible. MaxImbalance is the
// worst per-round max/min elements-per-worker ratio observed across all
// phase-2 merge rounds — ~1.0 when the merge-path balance guarantee
// holds.
type SortStats struct {
	// Runs is the number of phase-1 sequential runs sorted.
	Runs int
	// MergeRounds is the number of phase-2 pairwise merge rounds.
	MergeRounds int
	// RunSort is cumulative worker time spent sequentially sorting
	// phase-1 runs.
	RunSort time.Duration
	// Search is cumulative worker time spent in diagonal (co-rank)
	// searches across all phase-2 merges.
	Search time.Duration
	// Merge is cumulative worker time spent executing merge steps
	// across all phase-2 merges.
	Merge time.Duration
	// MaxImbalance is the worst per-round load-imbalance ratio
	// (max/min elements per engaged worker) across merge rounds; 0 if
	// no merge round ran.
	MaxImbalance float64
}

// SortCtx is Sort with cooperative cancellation: a canceled or expired
// ctx stops the sort at the next chunk boundary instead of running the
// full O(n log n) to completion. Phase 1 sorts runs of at most
// cancelRunElems elements (workers pull runs from a shared counter and
// check ctx between runs); phase 2 executes every pairwise merge through
// core.ParallelMergeCtx, which checks ctx every cancelCheckElems output
// elements.
//
// Returns nil when s is fully sorted and ctx.Err() when the sort was
// abandoned — s then holds an unspecified intermediate state (it may not
// even be a permutation of the input, since ping-pong rounds were
// interrupted mid-copy) and must be discarded. Like Sort, the result is
// stable and p < 1 panics.
func SortCtx[T cmp.Ordered](ctx context.Context, s []T, p int) error {
	_, err := sortCtx(ctx, s, p, false)
	return err
}

// SortCtxStats is SortCtx plus observability: the identical cancellable
// sort, additionally reporting the phase/time decomposition and the
// worst per-round load imbalance (see SortStats). Stats are returned
// even when the sort was abandoned, covering the work done so far.
func SortCtxStats[T cmp.Ordered](ctx context.Context, s []T, p int) (SortStats, error) {
	return sortCtx(ctx, s, p, true)
}

// sortCtx is the shared engine of SortCtx and SortCtxStats; timed
// selects whether per-phase timing and per-round load summaries are
// collected.
func sortCtx[T cmp.Ordered](ctx context.Context, s []T, p int, timed bool) (SortStats, error) {
	var st SortStats
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	n := len(s)
	if n < 2 {
		return st, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if p > n {
		p = n
	}

	// Runs sized for cancellation granularity: n/p like Sort, but capped
	// so one sequential run sort cannot outlive the deadline by much.
	runLen := (n + p - 1) / p
	if runLen > cancelRunElems {
		runLen = cancelRunElems
	}
	var runs [][2]int
	for lo := 0; lo < n; lo += runLen {
		runs = append(runs, [2]int{lo, min(lo+runLen, n)})
	}
	st.Runs = len(runs)

	scratch := make([]T, n)
	var stop atomic.Bool
	var runSortNanos atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			var local time.Duration
			for {
				if stop.Load() {
					break
				}
				if ctx.Err() != nil {
					stop.Store(true)
					break
				}
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					break
				}
				lo, hi := runs[i][0], runs[i][1]
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				seqSort(s[lo:hi], scratch[lo:hi])
				if timed {
					local += time.Since(t0)
				}
			}
			if timed {
				runSortNanos.Add(local.Nanoseconds())
			}
		}()
	}
	wg.Wait()
	st.RunSort = time.Duration(runSortNanos.Load())
	if stop.Load() {
		return st, ctx.Err()
	}

	// Phase 2: pairwise merge rounds, ping-ponging s and scratch, each
	// merge cancellation-aware. A round holds up to n/(2*runLen) pairs,
	// which may be more than p; sched.Round keeps it on p workers. A merge that observes ctx done leaves its
	// destination range partial; the round is then abandoned wholesale.
	// In timed mode each merge collects per-worker stats; the round's
	// element counts feed one LoadSummary per round and MaxImbalance
	// keeps the worst.
	src, dst := s, scratch
	for len(runs) > 1 {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		pairs := len(runs) / 2
		nextRuns := make([][2]int, 0, (len(runs)+1)/2)
		for m := 0; m < pairs; m++ {
			nextRuns = append(nextRuns, [2]int{runs[2*m][0], runs[2*m+1][1]})
		}
		var aborted atomic.Bool
		var roundStats [][]core.WorkerStat
		if timed {
			roundStats = make([][]core.WorkerStat, pairs)
		}
		sched.Round(pairs, p, func(m, workers int) {
			r1, r2 := runs[2*m], runs[2*m+1]
			a, b, out := src[r1[0]:r1[1]], src[r2[0]:r2[1]], dst[r1[0]:r2[1]]
			var err error
			if timed {
				roundStats[m], err = core.ParallelMergeCtxStats(ctx, a, b, out, workers)
			} else {
				err = core.ParallelMergeCtx(ctx, a, b, out, workers)
			}
			if err != nil {
				aborted.Store(true)
			}
		})
		st.MergeRounds++
		if timed {
			var elems []int
			for _, ws := range roundStats {
				for _, w := range ws {
					st.Search += w.Search
					st.Merge += w.Merge
					elems = append(elems, w.Elements)
				}
			}
			if imb := stats.SummarizeLoads(elems).Imbalance; imb > st.MaxImbalance {
				st.MaxImbalance = imb
			}
		}
		if aborted.Load() {
			return st, ctx.Err()
		}
		if len(runs)%2 == 1 {
			last := runs[len(runs)-1]
			copy(dst[last[0]:last[1]], src[last[0]:last[1]])
			nextRuns = append(nextRuns, last)
		}
		runs = nextRuns
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return st, nil
}
