package kway

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mergepath/internal/workload"
)

// BenchmarkKWayEngine runs the engine next to the Iter heap oracle over
// a k sweep at a fixed total output size, so the two columns compare per
// row. `make bench-kway` runs it.
func BenchmarkKWayEngine(b *testing.B) {
	const total = 1 << 20
	p := runtime.GOMAXPROCS(0)
	for _, k := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(42))
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, total/k)
		}
		dst := make([]int32, total)
		b.Run(fmt.Sprintf("k=%d/engine", k), func(b *testing.B) {
			b.SetBytes(int64(total) * 4)
			for i := 0; i < b.N; i++ {
				MergeInto(dst, lists, p)
			}
		})
		b.Run(fmt.Sprintf("k=%d/heap", k), func(b *testing.B) {
			b.SetBytes(int64(total) * 4)
			for i := 0; i < b.N; i++ {
				HeapMerge(lists)
			}
		})
	}
}

// BenchmarkCoRankSearch isolates the partitioner: the p-1 cut searches
// must stay microscopic next to the merge itself.
func BenchmarkCoRankSearch(b *testing.B) {
	const total = 1 << 20
	for _, k := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(7))
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, total/k)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CoRank(lists, total/2)
			}
		})
	}
}
