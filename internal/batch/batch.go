// Package batch merges many independent sorted-array pairs with one
// globally load-balanced worker pool — the batch/segmented-merge primitive
// that merge-path partitioning enables and that the technique's GPU
// descendants ship as "segmented merge". The point: scheduling one worker
// (or one fixed team) per pair starves when pair sizes are skewed, exactly
// the §I late-rounds problem in another costume. Here the p workers split
// the *total* output across all pairs evenly: worker boundaries are found
// by a binary search over the pairs' offset table followed by an in-pair
// diagonal search, so every worker gets total/p elements regardless of how
// the work is distributed among pairs.
//
// # Stability
//
// Every merge in this package is stable: within a pair, equal elements
// keep their relative order and ties between A and B resolve in favour of
// A (the core tie policy), so each Pair's Out is bit-identical to a
// sequential stable merge of its inputs. The global balancing cannot
// perturb this — workers write disjoint ranges of each pair's one merge
// path, and pairs never interleave (pair i's output goes only to pair i's
// Out). Merge and MergeWithLoads therefore produce identical output for
// identical input.
package batch

import (
	"cmp"
	"sort"
	"sync"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/stats"
)

// Pair is one merge job: A and B are sorted; Out receives the merge and
// must have length len(A)+len(B).
type Pair[T cmp.Ordered] struct {
	A, B, Out []T // sorted inputs A and B; Out receives their merge
}

// Merge merges every pair with p workers balanced over the total output
// size. Panics on a mis-sized Out or p < 1.
func Merge[T cmp.Ordered](pairs []Pair[T], p int) {
	if p < 1 {
		panic("batch: worker count must be positive")
	}
	// Offset table: offsets[i] is the global output rank where pair i
	// begins; offsets[len(pairs)] is the total.
	offsets := make([]int, len(pairs)+1)
	for i, pr := range pairs {
		if len(pr.Out) != len(pr.A)+len(pr.B) {
			panic("batch: output length mismatch")
		}
		offsets[i+1] = offsets[i] + len(pr.Out)
	}
	total := offsets[len(pairs)]
	if total == 0 {
		return
	}
	if p > total {
		p = total
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * total / p
			hi := (w + 1) * total / p
			mergeGlobalRange(pairs, offsets, lo, hi)
		}(w)
	}
	wg.Wait()
}

// mergeGlobalRange produces global output ranks [lo, hi), which may span
// multiple pairs: a partial tail of the first pair, whole middle pairs,
// and a partial head of the last.
func mergeGlobalRange[T cmp.Ordered](pairs []Pair[T], offsets []int, lo, hi int) {
	// First pair whose range extends past lo.
	i := sort.SearchInts(offsets, lo+1) - 1
	for ; lo < hi; i++ {
		pr := pairs[i]
		pLo := lo - offsets[i]                 // local start rank within pair i
		pHi := min(hi-offsets[i], len(pr.Out)) // local end rank
		if pLo < pHi {
			start := core.SearchDiagonal(pr.A, pr.B, pLo)
			core.MergeSteps(pr.A, pr.B, start, pHi-pLo, pr.Out[pLo:pHi])
		}
		lo = offsets[i] + len(pr.Out)
	}
}

// WorkerLoad reports what one worker of a globally balanced round did:
// how many output elements it produced, how many distinct pairs (whole
// or partial) it touched to produce them, and how its time split between
// diagonal/offset searches (partitioning) and sequential merge steps.
// The coalescing service layer exports these per-round counts on its
// metrics surface; durations follow the repository's JSON unit policy
// (float milliseconds — see stats.Millis).
type WorkerLoad struct {
	Elements int `json:"elements"` // output elements this worker produced
	Pairs    int `json:"pairs"`    // distinct pairs (whole or partial) it touched
	// SearchMS is time spent locating work: the offset-table binary
	// search plus the per-pair diagonal (co-rank) searches.
	SearchMS float64 `json:"search_ms"`
	// MergeMS is time spent emitting output elements.
	MergeMS float64 `json:"merge_ms"`
}

// Summarize condenses per-worker loads into the min/max/mean/imbalance
// summary the metrics layer exports per round.
func Summarize(loads []WorkerLoad) stats.LoadSummary {
	elems := make([]int, len(loads))
	for i, l := range loads {
		elems[i] = l.Elements
	}
	return stats.SummarizeLoads(elems)
}

// MergeWithLoads is Merge plus observability: it performs the identical
// globally balanced round and returns one WorkerLoad per worker actually
// used (p is clamped to the total output size, like Merge). Elements are
// always within one of total/p; Pairs shows how pair boundaries fell
// across workers this round; SearchMS/MergeMS split each worker's wall
// time between partitioning (offset + diagonal searches) and merging, at
// a cost of two clock reads per pair segment per worker.
func MergeWithLoads[T cmp.Ordered](pairs []Pair[T], p int) []WorkerLoad {
	if p < 1 {
		panic("batch: worker count must be positive")
	}
	offsets := make([]int, len(pairs)+1)
	for i, pr := range pairs {
		if len(pr.Out) != len(pr.A)+len(pr.B) {
			panic("batch: output length mismatch")
		}
		offsets[i+1] = offsets[i] + len(pr.Out)
	}
	total := offsets[len(pairs)]
	if total == 0 {
		return []WorkerLoad{}
	}
	if p > total {
		p = total
	}
	loads := make([]WorkerLoad, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * total / p
			hi := (w + 1) * total / p
			search, merge := mergeGlobalRangeTimed(pairs, offsets, lo, hi)
			loads[w] = WorkerLoad{
				Elements: hi - lo,
				Pairs:    pairsSpanned(pairs, offsets, lo, hi),
				SearchMS: stats.Millis(search),
				MergeMS:  stats.Millis(merge),
			}
		}(w)
	}
	wg.Wait()
	return loads
}

// mergeGlobalRangeTimed is mergeGlobalRange with the partition/merge
// time split measured. It is a separate copy so the untimed path
// (Merge) stays free of clock reads.
func mergeGlobalRangeTimed[T cmp.Ordered](pairs []Pair[T], offsets []int, lo, hi int) (search, merge time.Duration) {
	t0 := time.Now()
	i := sort.SearchInts(offsets, lo+1) - 1
	search = time.Since(t0)
	for ; lo < hi; i++ {
		pr := pairs[i]
		pLo := lo - offsets[i]
		pHi := min(hi-offsets[i], len(pr.Out))
		if pLo < pHi {
			t0 = time.Now()
			start := core.SearchDiagonal(pr.A, pr.B, pLo)
			search += time.Since(t0)
			t0 = time.Now()
			core.MergeSteps(pr.A, pr.B, start, pHi-pLo, pr.Out[pLo:pHi])
			merge += time.Since(t0)
		}
		lo = offsets[i] + len(pr.Out)
	}
	return search, merge
}

// pairsSpanned counts pairs whose non-empty output range intersects
// global ranks [lo, hi).
func pairsSpanned[T cmp.Ordered](pairs []Pair[T], offsets []int, lo, hi int) int {
	n := 0
	for i := sort.SearchInts(offsets, lo+1) - 1; i < len(pairs) && offsets[i] < hi; i++ {
		if offsets[i+1] > lo && offsets[i] < offsets[i+1] {
			n++
		}
	}
	return n
}
