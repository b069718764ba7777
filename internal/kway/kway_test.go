package kway

import (
	"cmp"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mergepath/internal/core"
	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

func TestMergeBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		p := 1 + rng.Intn(8)
		lists := make([][]int32, k)
		var all []int32
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, rng.Intn(400))
			all = append(all, lists[i]...)
		}
		got := Merge(lists, p)
		if !verify.Sorted(got) {
			t.Fatalf("k=%d p=%d: not sorted", k, p)
		}
		if !verify.SameMultiset(got, all) {
			t.Fatalf("k=%d p=%d: elements lost", k, p)
		}
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if got := Merge[int32](nil, 4); got != nil {
		t.Errorf("nil lists: %v", got)
	}
	if got := Merge([][]int32{{}, {}, {}}, 2); len(got) != 0 {
		t.Errorf("all-empty lists: %v", got)
	}
	single := []int32{3, 1} // deliberately unsorted single list is returned as-is (copied)
	got := Merge([][]int32{single}, 2)
	if &got[0] == &single[0] {
		t.Error("single list must be copied, not aliased")
	}
	if got[0] != 3 || got[1] != 1 {
		t.Errorf("single list content: %v", got)
	}
}

func TestMergePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	Merge([][]int32{{1}}, 0)
}

func TestMergeAgainstHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, rng.Intn(200))
			for j := range lists[i] {
				lists[i][j] %= 10 // duplicate-heavy: stresses tie order
			}
			insertion(lists[i])
		}
		got := Merge(lists, 3)
		want := HeapMerge(lists)
		if !verify.Equal(got, want) {
			t.Fatalf("k=%d: merge differs from heap merge", k)
		}
	}
}

// TestWindowsHonourWorkerLimit counts the windows that merge at once,
// which must never exceed p, and checks that the scratch of all windows
// together fits in one dst-sized array — the budget extsort charges a
// k-way merge for.
func TestWindowsHonourWorkerLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, k := range []int{3, 7, 33} {
		lists := genShape(rng, "uniform", k, 4*coRankMinTotal)
		want := HeapMerge(lists)
		for _, p := range []int{1, 2, 3, 5} {
			var running, peak atomic.Int64
			dst := make([]int32, len(want))
			mergeWindows(dst, lists, p, cmp.Less[int32], func(a, b, out []int32) {
				now := running.Add(1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				time.Sleep(200 * time.Microsecond) // hold the window so windows overlap
				core.Merge(a, b, out)
				running.Add(-1)
			})
			if got := peak.Load(); got > int64(p) {
				t.Errorf("k=%d p=%d: %d windows merged at once", k, p, got)
			}
			if !verify.Equal(dst, want) {
				t.Fatalf("k=%d p=%d: windowed merge differs from heap merge", k, p)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			MergeInto(dst, lists, p)
			runtime.ReadMemStats(&after)
			// One int32 scratch array as long as dst, plus the cut
			// vectors and run lists (some KiB).
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(dst)+32<<10); got > limit {
				t.Errorf("k=%d p=%d: one merge allocated %d bytes, want <= %d", k, p, got, limit)
			}
		}
	}
}

func TestMergeStabilityAcrossLists(t *testing.T) {
	// Equal keys must come out ordered by list index. Use disjoint markers:
	// all keys equal, k lists — positions in the output identify lists only
	// through the heap/tree tie rule, so compare against HeapMerge, whose
	// tie rule is explicit.
	lists := [][]int32{{5, 5}, {5}, {5, 5, 5}}
	got := Merge(lists, 2)
	if len(got) != 6 {
		t.Fatalf("length %d", len(got))
	}
	for _, v := range got {
		if v != 5 {
			t.Fatalf("content %v", got)
		}
	}
}

func TestHeapMergeEmpty(t *testing.T) {
	if got := HeapMerge[int32](nil); len(got) != 0 {
		t.Errorf("nil: %v", got)
	}
	if got := HeapMerge([][]int32{{}, {1, 2}, {}}); len(got) != 2 {
		t.Errorf("mixed empties: %v", got)
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(raw [][]int32, pSeed uint8) bool {
		lists := make([][]int32, len(raw))
		var all []int32
		for i, l := range raw {
			lists[i] = append([]int32(nil), l...)
			insertion(lists[i])
			all = append(all, lists[i]...)
		}
		got := Merge(lists, 1+int(pSeed)%6)
		return verify.Sorted(got) && verify.SameMultiset(got, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func insertion(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestMergeFuncMatchesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	less := func(x, y int32) bool { return x < y }
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(10)
		p := 1 + rng.Intn(6)
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = workload.SortedUniform32(rng, rng.Intn(300))
		}
		got := MergeFunc(lists, p, less)
		want := Merge(lists, p)
		if !verify.Equal(got, want) {
			t.Fatalf("k=%d p=%d: func and ordered variants diverge", k, p)
		}
	}
}

func TestMergeFuncStability(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		lists := make([][]verify.Tagged, k)
		for i := range lists {
			lists[i] = verify.Tag(workload.SortedUniform(rng, rng.Intn(100), 5), i)
		}
		out := MergeFunc(lists, 3, verify.TaggedLess)
		// Cross-list stability: equal keys ordered by source list, then by
		// per-list index.
		for i := 1; i < len(out); i++ {
			prev, cur := out[i-1], out[i]
			if cur.Key < prev.Key {
				t.Fatalf("unsorted at %d", i)
			}
			if cur.Key == prev.Key {
				if prev.Source > cur.Source {
					t.Fatalf("list-order tie violation at %d: %+v then %+v", i, prev, cur)
				}
				if prev.Source == cur.Source && prev.Index >= cur.Index {
					t.Fatalf("in-list order violation at %d", i)
				}
			}
		}
	}
}

func TestMergeFuncEdge(t *testing.T) {
	less := func(x, y int32) bool { return x < y }
	if got := MergeFunc[int32](nil, 2, less); got != nil {
		t.Errorf("nil lists: %v", got)
	}
	got := MergeFunc([][]int32{{1, 2}}, 2, less)
	if len(got) != 2 || got[0] != 1 {
		t.Errorf("single list: %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for p=0")
			}
		}()
		MergeFunc([][]int32{{1}}, 0, less)
	}()
}
