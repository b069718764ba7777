// Package kway builds k-way merging out of the paper's machinery — the
// "later rounds" structure of merge sort that motivates the paper's
// introduction, packaged as a standalone utility (merging sorted runs
// from k producers: log-structured storage compactions, sharded log
// replay, external sort phases).
//
// Every entry point runs one engine. CoRank cuts the k runs at p
// equispaced output ranks without merging — the k-way generalization
// of the paper's Theorem 5 two-array partition — so each of p windows
// is an independent job of balanced size (below coRankMinTotal
// elements the merge is one window). Each window then merges its slices
// of the runs with a sequential binary tree of the paper's two-way
// merge (core.Merge), so the hot loop is always the two-way kernel. Equal elements are ordered by source-list index, then
// position, whatever p is.
//
// See docs/KWAY.md for the co-ranking invariants and the balance proof
// sketch.
package kway

import (
	"cmp"
	"sync"

	"mergepath/internal/core"
)

// Merge merges k sorted lists into a single sorted slice with up to p
// parallel windows. Stability: the result orders equal elements by
// source list index, then by position — the same guarantee sort.Stable
// would give on a concatenation.
func Merge[T cmp.Ordered](lists [][]T, p int) []T {
	if p < 1 {
		panic("kway: worker count must be positive")
	}
	if len(lists) == 0 {
		return nil
	}
	return MergeInto(make([]T, totalLen(lists)), lists, p)
}

// MergeInto is Merge writing its result into a caller-supplied buffer:
// dst must have len >= the total element count of lists, and the merged
// output is returned as dst[:total]. The final merge writes straight
// into dst, so a caller that already owns the response buffer (the
// mergerouter gather stage, pooled arenas) never pays a full-size
// allocation+copy; the only other memory is at most one dst-sized
// scratch array, shared out among the windows. Lists are never
// modified. dst must not alias any input list.
func MergeInto[T cmp.Ordered](dst []T, lists [][]T, p int) []T {
	out, _ := MergeIntoStats(dst, lists, p, StrategyAuto)
	return out
}

// Strategy names a k-way merge implementation. The package has a single
// engine, so StrategyAuto is the only value; the type remains because
// the perfbench harness passes it to MergeIntoStats.
type Strategy uint8

// StrategyAuto is the one engine: co-rank windows, each merged by a
// sequential tree of two-way merges.
const StrategyAuto Strategy = 0

// Stats reports what one MergeIntoStats call did, for the service
// metrics that extend the Theorem 5 imbalance validation from 2-way to
// k-way merges.
type Stats struct {
	// K is the number of input runs, empty runs included.
	K int
	// Workers is how many output windows were merged in parallel: 1
	// below coRankMinTotal elements, otherwise min(p, total).
	Workers int
	// PerWorker is the elements each window wrote, in window order;
	// nil when the merge ran as one window, which has nothing to
	// balance.
	PerWorker []int
	// Imbalance is max/mean of PerWorker — the k-way generalization of
	// the paper's Theorem 5 balance check, ~1.0 by construction because
	// windows are cut at equispaced output ranks. Zero when PerWorker
	// is nil.
	Imbalance float64
}

// coRankMinTotal is the output size below which the engine merges one
// window: under a few thousand elements the goroutine hand-off and the
// p-1 co-rank searches cost more than the merge.
const coRankMinTotal = 1 << 13

// MergeIntoStats is MergeInto plus the per-call Stats: dst must have
// len >= the total element count of lists and must not alias any
// input; the merged output is returned as dst[:total]. The Strategy
// argument is ignored — there is one engine — and stays in the
// signature only because the perfbench harness calls it this way.
func MergeIntoStats[T cmp.Ordered](dst []T, lists [][]T, p int, _ Strategy) ([]T, Stats) {
	if p < 1 {
		panic("kway: worker count must be positive")
	}
	total := totalLen(lists)
	if len(dst) < total {
		panic("kway: destination shorter than total input length")
	}
	dst = dst[:total]
	return dst, mergeWindows(dst, lists, p, cmp.Less[T], core.Merge[T])
}

// MergeFunc is Merge under a caller-supplied strict weak ordering. The
// cross-list tie rule matches Merge: lower list index wins.
func MergeFunc[T any](lists [][]T, p int, less func(x, y T) bool) []T {
	if p < 1 {
		panic("kway: worker count must be positive")
	}
	if len(lists) == 0 {
		return nil
	}
	dst := make([]T, totalLen(lists))
	mergeWindows(dst, lists, p, less, func(a, b, out []T) { core.MergeFunc(a, b, out, less) })
	return dst
}

// HeapMerge merges k sorted lists sequentially by draining an Iter —
// the O(N·log k) cursor-heap classic that the engine is property-tested
// and benchmarked against. Stable in the same sense as Merge.
func HeapMerge[T cmp.Ordered](lists [][]T) []T {
	it := NewIter(lists)
	out := make([]T, 0, it.Remaining())
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		out = append(out, v)
	}
	return out
}

func totalLen[T any](lists [][]T) int {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	return total
}

// mergeWindows is the engine: it merges lists into dst (whose length is
// their combined length) as w = min(p, total) windows cut by coRank at
// equal output ranks, or as one window below coRankMinTotal. The cut
// vectors are componentwise monotone (prefix sets are nested), so the
// windows partition every input exactly once and each window writes a
// pre-assigned disjoint span of dst: no locks, no coordination. Window
// v merges its kᵥ non-empty slices with treeMerge, using the matching
// span of one dst-sized scratch array, allocated only when some window
// has more than two slices. merge is the two-way kernel under less;
// two runs whose ranges do not overlap skip it for a concatenation.
func mergeWindows[T any](dst []T, lists [][]T, p int, less func(x, y T) bool, merge func(a, b, out []T)) Stats {
	total := len(dst)
	w := min(p, total)
	if total < coRankMinTotal {
		w = min(w, 1)
	}
	st := Stats{K: len(lists), Workers: max(w, 1)}
	if w == 0 {
		return st
	}
	runs := make([][][]T, w)
	needScratch := false
	lo := make([]int, len(lists))
	for v := range runs {
		var hi []int
		if v < w-1 {
			hi = coRank(lists, (v+1)*total/w, less)
		} else {
			hi = make([]int, len(lists))
			for i, l := range lists {
				hi[i] = len(l)
			}
		}
		runs[v] = make([][]T, 0, len(lists))
		for i, l := range lists {
			if lo[i] < hi[i] {
				runs[v] = append(runs[v], l[lo[i]:hi[i]])
			}
		}
		needScratch = needScratch || len(runs[v]) > 2
		lo = hi
	}
	var scratch []T
	if needScratch {
		scratch = make([]T, total)
	}
	pair := func(a, b, out []T) {
		if !less(b[0], a[len(a)-1]) {
			copy(out[copy(out, a):], b) // all of a precedes all of b
			return
		}
		merge(a, b, out)
	}
	window := func(v int) {
		start, end := v*total/w, (v+1)*total/w
		var s []T
		if scratch != nil {
			s = scratch[start:end]
		}
		treeMerge(dst[start:end], s, runs[v], pair)
	}
	if w == 1 {
		window(0)
		return st
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for v := 1; v < w; v++ {
		go func() {
			defer wg.Done()
			window(v)
		}()
	}
	window(0)
	wg.Wait()
	st.PerWorker = make([]int, w)
	maxLoad := 0
	for v := range st.PerWorker {
		st.PerWorker[v] = (v+1)*total/w - v*total/w
		maxLoad = max(maxLoad, st.PerWorker[v])
	}
	st.Imbalance = float64(maxLoad) * float64(w) / float64(total)
	return st
}

// treeMerge merges runs (non-empty, in list order) into dst, whose
// length is their combined length, with a sequential binary tree of
// pairwise merges. Each node splits its runs where the prefix length
// comes closest to half its output, so a long run sits near the root
// and moves few times, and equal runs get a balanced tree of ⌈log₂ k⌉
// levels. Each merge takes the lower-indexed side as its first,
// tie-winning input, which preserves the cross-list tie rule through
// the tree. Nodes alternate buffers by depth (flip-flop): the root
// writes dst, its children scratch, theirs dst again, each within its
// own span, so a node overwrites only spans its children have already
// consumed; a single run is read in place, never copied up the tree.
// scratch must be as long as dst when there are more than two runs.
func treeMerge[T any](dst, scratch []T, runs [][]T, merge func(a, b, out []T)) {
	if len(runs) == 1 {
		copy(dst, runs[0])
		return
	}
	i, n := 1, len(runs[0])
	for i < len(runs)-1 && 2*n+len(runs[i]) < len(dst) {
		n += len(runs[i])
		i++
	}
	a, b := runs[0], runs[i]
	if i > 1 {
		a = scratch[:n]
		treeMerge(a, dst[:n], runs[:i], merge)
	}
	if len(runs)-i > 1 {
		b = scratch[n:]
		treeMerge(b, dst[n:], runs[i:], merge)
	}
	merge(a, b, dst)
}
