// Package psort implements the paper's two sorting algorithms:
//
//   - Sort (§III): parallel merge sort. Each of p workers first sorts an
//     N/p chunk sequentially; then log2(p) rounds of pairwise merges follow,
//     every merge executed with the Merge Path parallel merge so that all p
//     workers stay busy in every round — the property that motivates the
//     paper (the later rounds of merge sort are where naive parallelization
//     starves).
//   - CacheEfficientSort (§IV.C): sort cache-sized blocks one after another
//     (each with the parallel sort, all workers on one block so the block
//     stays cache-resident), then a binary tree of segmented parallel
//     merges (spm.Merge) whose working set never exceeds the cache.
//
// Both sorts are stable and out-of-place internally (ping-pong scratch),
// with the result always landing back in the caller's slice.
package psort

import (
	"cmp"
	"sync"

	"mergepath/internal/core"
	"mergepath/internal/sched"
	"mergepath/internal/spm"
)

// insertionThreshold is the run length below which the sequential kernel
// switches to insertion sort, the usual bottom-of-recursion optimization.
const insertionThreshold = 24

// Sort sorts s with p concurrent workers using parallel merge sort.
// p < 1 panics; p == 1 degenerates to the sequential kernel.
func Sort[T cmp.Ordered](s []T, p int) {
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	n := len(s)
	if n < 2 {
		return
	}
	if p > n {
		p = n
	}
	if p == 1 {
		scratch := make([]T, n)
		seqSort(s, scratch)
		return
	}

	scratch := make([]T, n)
	// Phase 1: p chunks sorted concurrently, each by the sequential kernel.
	runs := make([][2]int, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		runs[i] = [2]int{lo, hi}
		go func(lo, hi int) {
			defer wg.Done()
			seqSort(s[lo:hi], scratch[lo:hi])
		}(lo, hi)
	}
	wg.Wait()

	// Phase 2: rounds of pairwise parallel merges, ping-ponging between s
	// and scratch. All p workers are spread over the round's merges.
	src, dst := s, scratch
	for len(runs) > 1 {
		pairs := len(runs) / 2
		next := make([][2]int, 0, (len(runs)+1)/2)
		for m := 0; m < pairs; m++ {
			next = append(next, [2]int{runs[2*m][0], runs[2*m+1][1]})
		}
		sched.Round(pairs, p, func(m, workers int) {
			r1, r2 := runs[2*m], runs[2*m+1]
			core.ParallelMerge(src[r1[0]:r1[1]], src[r2[0]:r2[1]], dst[r1[0]:r2[1]], workers)
		})
		if len(runs)%2 == 1 {
			last := runs[len(runs)-1]
			copy(dst[last[0]:last[1]], src[last[0]:last[1]])
			next = append(next, last)
		}
		runs = next
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// CacheEfficientSort sorts s with p workers, keeping the working set of
// every phase within cacheElems elements (§IV.C): cache-sized blocks are
// sorted one at a time with the parallel sort, then merged pairwise with
// the segmented parallel merge whose window is cacheElems/3.
func CacheEfficientSort[T cmp.Ordered](s []T, cacheElems, p int) {
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	if cacheElems < 3 {
		panic("psort: cache must hold at least 3 elements")
	}
	n := len(s)
	if n < 2 {
		return
	}
	// "Equisized sub-arrays whose size is some fraction of the cache size":
	// blocks of C/2 leave room for the sort's scratch within the cache.
	block := cacheElems / 2
	if block < 1 {
		block = 1
	}
	if block > n {
		block = n
	}
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		Sort(s[lo:hi], p)
	}

	// Merge rounds: a binary tree of segmented merges, one merge at a time
	// (the segmentation, not merge-level concurrency, provides the
	// parallelism — all p workers cooperate inside each window).
	scratch := make([]T, n)
	src, dst := s, scratch
	window := cacheElems / 3
	for width := block; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			hi := mid + width
			if hi > n {
				hi = n
			}
			spm.Merge(src[lo:mid], src[mid:hi], dst[lo:hi], spm.Config{Window: window, Workers: p})
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// SortFunc sorts s under a caller-supplied strict weak ordering with p
// workers. The structure mirrors Sort; it exists for the stability tests
// and for callers whose element type is not cmp.Ordered.
func SortFunc[T any](s []T, p int, less func(x, y T) bool) {
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	n := len(s)
	if n < 2 {
		return
	}
	if p > n {
		p = n
	}
	scratch := make([]T, n)
	if p == 1 {
		seqSortFunc(s, scratch, less)
		return
	}
	runs := make([][2]int, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		runs[i] = [2]int{lo, hi}
		go func(lo, hi int) {
			defer wg.Done()
			seqSortFunc(s[lo:hi], scratch[lo:hi], less)
		}(lo, hi)
	}
	wg.Wait()
	src, dst := s, scratch
	for len(runs) > 1 {
		pairs := len(runs) / 2
		next := make([][2]int, 0, (len(runs)+1)/2)
		for m := 0; m < pairs; m++ {
			next = append(next, [2]int{runs[2*m][0], runs[2*m+1][1]})
		}
		sched.Round(pairs, p, func(m, workers int) {
			r1, r2 := runs[2*m], runs[2*m+1]
			core.ParallelMergeFunc(src[r1[0]:r1[1]], src[r2[0]:r2[1]], dst[r1[0]:r2[1]], workers, less)
		})
		if len(runs)%2 == 1 {
			last := runs[len(runs)-1]
			copy(dst[last[0]:last[1]], src[last[0]:last[1]])
			next = append(next, last)
		}
		runs = next
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// seqSort is the sequential kernel: bottom-up merge sort over scratch with
// insertion-sorted leaves. Stable. len(scratch) must equal len(s).
func seqSort[T cmp.Ordered](s, scratch []T) {
	n := len(s)
	for lo := 0; lo < n; lo += insertionThreshold {
		hi := lo + insertionThreshold
		if hi > n {
			hi = n
		}
		insertionSort(s[lo:hi])
	}
	src, dst := s, scratch
	for width := insertionThreshold; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			if hi > n {
				hi = n
			}
			core.Merge(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

func seqSortFunc[T any](s, scratch []T, less func(x, y T) bool) {
	n := len(s)
	for lo := 0; lo < n; lo += insertionThreshold {
		hi := lo + insertionThreshold
		if hi > n {
			hi = n
		}
		insertionSortFunc(s[lo:hi], less)
	}
	src, dst := s, scratch
	for width := insertionThreshold; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			if hi > n {
				hi = n
			}
			core.MergeFunc(src[lo:mid], src[mid:hi], dst[lo:hi], less)
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

func insertionSort[T cmp.Ordered](s []T) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && v < s[j-1] {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

func insertionSortFunc[T any](s []T, less func(x, y T) bool) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && less(v, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}

// CacheEfficientSortFunc is CacheEfficientSort under a caller-supplied
// strict weak ordering. Stable.
func CacheEfficientSortFunc[T any](s []T, cacheElems, p int, less func(x, y T) bool) {
	if p < 1 {
		panic("psort: worker count must be positive")
	}
	if cacheElems < 3 {
		panic("psort: cache must hold at least 3 elements")
	}
	n := len(s)
	if n < 2 {
		return
	}
	block := cacheElems / 2
	if block < 1 {
		block = 1
	}
	if block > n {
		block = n
	}
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		SortFunc(s[lo:hi], p, less)
	}
	scratch := make([]T, n)
	src, dst := s, scratch
	window := cacheElems / 3
	for width := block; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				copy(dst[lo:n], src[lo:n])
				break
			}
			hi := mid + width
			if hi > n {
				hi = n
			}
			spm.MergeFunc(src[lo:mid], src[mid:hi], dst[lo:hi], spm.Config{Window: window, Workers: p}, less)
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}
