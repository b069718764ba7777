package kway

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// genLists builds k sorted lists with the requested value domain (small
// domains force duplicate-heavy ties) and a sprinkling of empty and
// singleton runs, the shapes the co-rank search must survive.
func genLists(rng *rand.Rand, k, maxLen int, domain int32) [][]int32 {
	lists := make([][]int32, k)
	for i := range lists {
		var n int
		switch rng.Intn(6) {
		case 0:
			n = 0 // empty run
		case 1:
			n = 1 // singleton run
		default:
			n = rng.Intn(maxLen + 1)
		}
		l := workload.SortedUniform32(rng, n)
		if domain > 0 {
			for j := range l {
				if l[j] %= domain; l[j] < 0 {
					l[j] += domain
				}
			}
			insertion(l)
		}
		lists[i] = l
	}
	return lists
}

// genShape spreads exactly total elements over k sorted lists in one of
// the shapes the engine must survive: uniform values, duplicate-heavy
// values (ties across every window cut), one long run among short ones,
// and disjoint value ranges that put later lists first (windows then
// align with whole runs).
func genShape(rng *rand.Rand, shape string, k, total int) [][]int32 {
	lens := make([]int, k)
	if shape == "onelong" && k > 0 {
		long := rng.Intn(k)
		lens[long] = total
		for i := range lens {
			if n := rng.Intn(total/(4*k) + 1); i != long && n <= lens[long] {
				lens[i] = n
				lens[long] -= n
			}
		}
	} else {
		cuts := []int{0, total}
		for i := 1; i < k; i++ {
			cuts = append(cuts, rng.Intn(total+1))
		}
		sort.Ints(cuts)
		for i := range lens {
			lens[i] = cuts[i+1] - cuts[i]
		}
	}
	lists := make([][]int32, k)
	for i, n := range lens {
		l := workload.SortedUniform32(rng, n)
		switch shape {
		case "dups":
			for j := range l {
				l[j] = l[j] & 3
			}
			insertion(l)
		case "disjoint":
			for j := range l {
				l[j] = int32((k-i)<<20 + j)
			}
		}
		lists[i] = l
	}
	return lists
}

// TestMergeIntoMatchesHeap is the differential gate wired into `make
// verify`: Merge, MergeIntoStats and MergeFunc must be byte-identical to
// the Iter heap across k, totals on both sides of the one-window
// threshold, value shapes and window counts (p > total included), and
// the windows must be cut at equal output ranks.
func TestMergeIntoMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	less := func(x, y int32) bool { return x < y }
	for _, k := range []int{0, 1, 2, 3, 32, 33} {
		for _, shape := range []string{"uniform", "dups", "onelong", "disjoint"} {
			for _, total := range []int{0, 1, 5, 300, coRankMinTotal - 1, coRankMinTotal, coRankMinTotal + 7, 3*coRankMinTotal + 1} {
				if k == 0 && total > 0 {
					continue
				}
				lists := genShape(rng, shape, k, total)
				want := HeapMerge(lists)
				for _, p := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("k=%d %s total=%d p=%d", k, shape, total, p)
					if got := Merge(lists, p); !verify.Equal(got, want) {
						t.Fatalf("%s: Merge differs from the heap", name)
					}
					if got := MergeFunc(lists, p, less); !verify.Equal(got, want) {
						t.Fatalf("%s: MergeFunc differs from the heap", name)
					}
					got, st := MergeIntoStats(make([]int32, total+1), lists, p, StrategyAuto)
					if !verify.Equal(got, want) {
						t.Fatalf("%s: MergeIntoStats differs from the heap", name)
					}
					windows := min(p, total)
					if total < coRankMinTotal {
						windows = 1
					}
					if st.K != k || st.Workers != windows {
						t.Fatalf("%s: stats %+v, want K=%d Workers=%d", name, st, k, windows)
					}
					checkLoads(t, name, st, total)
				}
			}
		}
	}
}

// checkLoads asserts the Theorem 5 balance of one merge's windows: every
// window writes ⌊total/w⌋ or ⌈total/w⌉ elements, and a single window
// reports no loads at all.
func checkLoads(t *testing.T, name string, st Stats, total int) {
	t.Helper()
	if st.Workers == 1 {
		if st.PerWorker != nil || st.Imbalance != 0 {
			t.Fatalf("%s: one window reports loads %v, imbalance %.3f", name, st.PerWorker, st.Imbalance)
		}
		return
	}
	if len(st.PerWorker) != st.Workers {
		t.Fatalf("%s: %d loads for %d windows", name, len(st.PerWorker), st.Workers)
	}
	lo, hi := total/st.Workers, (total+st.Workers-1)/st.Workers
	sum := 0
	for w, n := range st.PerWorker {
		if n < lo || n > hi {
			t.Fatalf("%s: window %d load %d outside [%d,%d]", name, w, n, lo, hi)
		}
		sum += n
	}
	if sum != total {
		t.Fatalf("%s: window loads sum to %d, want %d", name, sum, total)
	}
	if st.Imbalance < 1 || st.Imbalance > 1.5 {
		t.Fatalf("%s: imbalance %.3f", name, st.Imbalance)
	}
}

// referenceCuts computes the cut vector at rank r from a tagged stable
// merge: concatenate (value, list, index) triples in list order, stable
// sort by value (which leaves ties in list-then-index order), and count
// the first r elements per list. This is the spec CoRank must match.
func referenceCuts(lists [][]int32, r int) []int {
	type tagged struct {
		v    int32
		list int
	}
	var all []tagged
	for i, l := range lists {
		for _, v := range l {
			all = append(all, tagged{v, i})
		}
	}
	sort.SliceStable(all, func(x, y int) bool { return all[x].v < all[y].v })
	cuts := make([]int, len(lists))
	for _, e := range all[:r] {
		cuts[e.list]++
	}
	return cuts
}

// TestCoRankMatchesReference pins the tie-break order: the cuts must
// agree with a tagged stable sort at every rank, so equal elements are
// charged to lower-indexed lists first, in position order.
func TestCoRankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(10)
		lists := genLists(rng, k, 60, int32(1+rng.Intn(8))) // heavy ties
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		for _, r := range []int{0, total / 3, total / 2, total} {
			got := CoRank(lists, r)
			want := referenceCuts(lists, r)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d rank %d: cuts %v, want %v (lists %v)", trial, r, got, want, lists)
				}
			}
		}
	}
}

// TestCoRankAllEqual is the degenerate tie case spelled out: with every
// value equal, rank r must drain lists in index order.
func TestCoRankAllEqual(t *testing.T) {
	lists := [][]int32{{7, 7, 7}, {7}, {7, 7, 7, 7}, {7, 7}}
	wants := map[int][]int{
		0:  {0, 0, 0, 0},
		2:  {2, 0, 0, 0},
		3:  {3, 0, 0, 0},
		4:  {3, 1, 0, 0},
		6:  {3, 1, 2, 0},
		10: {3, 1, 4, 2},
	}
	for r, want := range wants {
		got := CoRank(lists, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: cuts %v, want %v", r, got, want)
			}
		}
	}
}

// TestCoRankInvariant checks the pairwise partition invariant directly:
// nothing left behind a cut may precede anything taken by another cut,
// under (value, list index) order.
func TestCoRankInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(12)
		lists := genLists(rng, k, 120, int32(rng.Intn(20)))
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		r := rng.Intn(total + 1)
		cuts := CoRank(lists, r)
		assertValidCuts(t, lists, r, cuts)
	}
}

// assertValidCuts checks sum, bounds and the pairwise invariant of one
// cut vector (shared with FuzzCoRank).
func assertValidCuts(t *testing.T, lists [][]int32, r int, cuts []int) {
	t.Helper()
	sum := 0
	for i, c := range cuts {
		if c < 0 || c > len(lists[i]) {
			t.Fatalf("rank %d: cut %d out of bounds: %v", r, i, cuts)
		}
		sum += c
	}
	if sum != r {
		t.Fatalf("cuts sum to %d, want rank %d: %v", sum, r, cuts)
	}
	for i, ci := range cuts {
		if ci == 0 {
			continue
		}
		last := lists[i][ci-1]
		for j, cj := range cuts {
			if cj == len(lists[j]) {
				continue
			}
			next := lists[j][cj]
			// (last, i) must precede (next, j): last < next, or equal
			// values with i <= j (same-list ties are ordered by
			// position, and next sits at a later position than last).
			if last < next || (last == next && i <= j) {
				continue
			}
			t.Fatalf("rank %d: lists[%d][%d]=%v taken but lists[%d][%d]=%v left behind precedes it (cuts %v)",
				r, i, ci-1, last, j, cj, next, cuts)
		}
	}
}

// TestCoRankMonotone: cuts at increasing ranks must be componentwise
// monotone, so the windows between consecutive cuts are disjoint and
// cover every element — what makes the p-worker merge lock-free.
func TestCoRankMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 30; trial++ {
		lists := genLists(rng, 2+rng.Intn(8), 80, 10)
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		p := 1 + rng.Intn(9)
		prev := make([]int, len(lists))
		for w := 1; w <= p; w++ {
			r := w * total / p
			cuts := CoRank(lists, r)
			for i := range cuts {
				if cuts[i] < prev[i] {
					t.Fatalf("cuts not monotone at rank %d: %v after %v", r, cuts, prev)
				}
			}
			prev = cuts
		}
		for i := range prev {
			if prev[i] != len(lists[i]) {
				t.Fatalf("final cut does not cover list %d: %v", i, prev)
			}
		}
	}
}

func TestCoRankPanicsOutOfRange(t *testing.T) {
	lists := [][]int32{{1, 2}, {3}}
	for _, r := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: expected panic", r)
				}
			}()
			CoRank(lists, r)
		}()
	}
}

func TestCoRankFuncMatchesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	less := func(x, y int32) bool { return x < y }
	for trial := 0; trial < 30; trial++ {
		lists := genLists(rng, 1+rng.Intn(8), 100, 6)
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		r := rng.Intn(total + 1)
		got := CoRankFunc(lists, r, less)
		want := CoRank(lists, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: func cuts %v, ordered cuts %v", r, got, want)
			}
		}
	}
}

// TestMergeWindowStats: per-window loads of a multi-window merge must
// sum to the total and be balanced to within one element (imbalance
// ~1.0), extending the Theorem 5 validation from 2-way to k-way.
func TestMergeWindowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 25; trial++ {
		k := 3 + rng.Intn(14)
		lists := genLists(rng, k, 4*coRankMinTotal/k, 0)
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		p := 1 + rng.Intn(8)
		got, st := MergeIntoStats(make([]int32, total), lists, p, StrategyAuto)
		if !verify.Equal(got, HeapMerge(lists)) {
			t.Fatal("windowed merge differs from heap baseline")
		}
		checkLoads(t, fmt.Sprintf("trial %d p=%d total=%d", trial, p, total), st, total)
	}
}

// TestMergeIntoStatsEdges: empty and single-list inputs.
func TestMergeIntoStatsEdges(t *testing.T) {
	out, st := MergeIntoStats([]int32{}, nil, 4, StrategyAuto)
	if len(out) != 0 || st.K != 0 {
		t.Fatalf("nil lists: %v %+v", out, st)
	}
	dst := make([]int32, 3)
	out, _ = MergeIntoStats(dst, [][]int32{{3, 1, 2}}, 4, StrategyAuto)
	if out[0] != 3 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("single list must be copied verbatim: %v", out)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for short dst")
			}
		}()
		MergeIntoStats(make([]int32, 1), [][]int32{{1}, {2}}, 2, StrategyAuto)
	}()
}
