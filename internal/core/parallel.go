package core

import (
	"cmp"
	"sync"
)

// ParallelMerge is Algorithm 1 of the paper: merge the sorted slices a and b
// into out using p concurrent workers.
//
// Each worker i independently computes the intersection of the merge path
// with cross diagonal i*(|a|+|b|)/p by binary search, then executes its
// share of sequential merge steps, writing to a disjoint region of out.
// There are no locks, no atomics and no inter-worker communication; the only
// synchronization is the terminal barrier (the WaitGroup), matching the
// paper's "Barrier" at the end of Algorithm 1.
//
// p < 1 panics; p == 1 degenerates to a sequential merge plus the (small)
// cost of the framework, which experiment E2 measures against Merge.
// out must have length len(a)+len(b).
func ParallelMerge[T cmp.Ordered](a, b, out []T, p int) {
	if p < 1 {
		panic("core: worker count must be positive")
	}
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	total := len(a) + len(b)
	if p > total {
		p = max(total, 1)
	}
	if p == 1 {
		start := SearchDiagonal(a, b, 0) // the origin; kept for symmetry
		MergeSteps(a, b, start, total, out)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(i int) {
			defer wg.Done()
			lo := i * total / p
			hi := (i + 1) * total / p
			start := SearchDiagonal(a, b, lo)
			MergeSteps(a, b, start, hi-lo, out[lo:hi])
		}(i)
	}
	wg.Wait()
}

// ParallelMergeFunc is ParallelMerge under a caller-supplied ordering.
func ParallelMergeFunc[T any](a, b, out []T, p int, less func(x, y T) bool) {
	if p < 1 {
		panic("core: worker count must be positive")
	}
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	total := len(a) + len(b)
	if p > total {
		p = max(total, 1)
	}
	if p == 1 {
		MergeStepsFunc(a, b, Point{}, total, out, less)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(i int) {
			defer wg.Done()
			lo := i * total / p
			hi := (i + 1) * total / p
			start := SearchDiagonalFunc(a, b, lo, less)
			MergeStepsFunc(a, b, start, hi-lo, out[lo:hi], less)
		}(i)
	}
	wg.Wait()
}
