package core

import (
	"cmp"
	"math/rand"
	"testing"
	"testing/quick"

	"mergepath/internal/workload"
)

// sortedCopy returns a sorted copy of s (insertion sort; test-local inputs
// are small).
func sortedCopy(s []int32) []int32 {
	out := append([]int32(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkPartitionPoint asserts the merge-path partition invariant that
// SearchDiagonal documents.
func checkPartitionPoint(t *testing.T, a, b []int32, k int, pt Point) {
	t.Helper()
	if pt.A+pt.B != k {
		t.Fatalf("diagonal %d: point %+v not on diagonal", k, pt)
	}
	if pt.A < 0 || pt.A > len(a) || pt.B < 0 || pt.B > len(b) {
		t.Fatalf("diagonal %d: point %+v out of bounds (|a|=%d |b|=%d)", k, pt, len(a), len(b))
	}
	if pt.A > 0 && pt.B < len(b) && a[pt.A-1] > b[pt.B] {
		t.Fatalf("diagonal %d: invariant a[ai-1] <= b[bi] violated at %+v: %d > %d",
			k, pt, a[pt.A-1], b[pt.B])
	}
	if pt.B > 0 && pt.A < len(a) && b[pt.B-1] >= a[pt.A] {
		t.Fatalf("diagonal %d: invariant b[bi-1] < a[ai] violated at %+v: %d >= %d",
			k, pt, b[pt.B-1], a[pt.A])
	}
}

func TestSearchDiagonalInvariantExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(12), rng.Intn(12)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		// Small value range forces many ties.
		for i := range a {
			a[i] %= 6
		}
		for i := range b {
			b[i] %= 6
		}
		a, b = sortedCopy(a), sortedCopy(b)
		for k := 0; k <= na+nb; k++ {
			checkPartitionPoint(t, a, b, k, SearchDiagonal(a, b, k))
		}
	}
}

func TestSearchDiagonalMatchesPath(t *testing.T) {
	// Proposition 13 / Theorem 14: the binary search finds exactly the point
	// the materialized path passes through on each diagonal.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(40), rng.Intn(40)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		if trial%3 == 0 { // duplicate-heavy
			for i := range a {
				a[i] %= 5
			}
			for i := range b {
				b[i] %= 5
			}
			a, b = sortedCopy(a), sortedCopy(b)
		}
		path := Path(a, b)
		for k := 0; k <= na+nb; k++ {
			got := SearchDiagonal(a, b, k)
			if got != path[k] {
				t.Fatalf("na=%d nb=%d k=%d: search %+v, path %+v", na, nb, k, got, path[k])
			}
		}
	}
}

func TestSearchDiagonalMatrixAgrees(t *testing.T) {
	// Ablation: the paper's matrix-transition formulation must agree with the
	// co-rank lower-bound formulation on every diagonal.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(30), rng.Intn(30)
		a, b := workload.Pair(workload.Kind(workload.Kinds()[trial%len(workload.Kinds())]), na, nb, int64(trial))
		for k := 0; k <= na+nb; k++ {
			p1 := SearchDiagonal(a, b, k)
			p2 := SearchDiagonalMatrix(a, b, k)
			if p1 != p2 {
				t.Fatalf("kind=%v na=%d nb=%d k=%d: SearchDiagonal %+v != SearchDiagonalMatrix %+v",
					workload.Kinds()[trial%len(workload.Kinds())], na, nb, k, p1, p2)
			}
		}
	}
}

func TestSearchDiagonalFuncAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	less := func(x, y int32) bool { return x < y }
	for trial := 0; trial < 100; trial++ {
		na, nb := rng.Intn(25), rng.Intn(25)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		for k := 0; k <= na+nb; k++ {
			p1 := SearchDiagonal(a, b, k)
			p2 := SearchDiagonalFunc(a, b, k, less)
			if p1 != p2 {
				t.Fatalf("k=%d: ordered %+v != func %+v", k, p1, p2)
			}
		}
	}
}

func TestSearchDiagonalEdges(t *testing.T) {
	a := []int32{1, 3, 5}
	b := []int32{2, 4, 6}
	if got := SearchDiagonal(a, b, 0); got != (Point{}) {
		t.Errorf("k=0: got %+v", got)
	}
	if got := SearchDiagonal(a, b, 6); got != (Point{A: 3, B: 3}) {
		t.Errorf("k=total: got %+v", got)
	}
	// Empty arrays: path is forced along a single axis.
	var empty []int32
	for k := 0; k <= 3; k++ {
		if got := SearchDiagonal(a, empty, k); got != (Point{A: k}) {
			t.Errorf("empty b, k=%d: got %+v", k, got)
		}
		if got := SearchDiagonal(empty, b, k); got != (Point{B: k}) {
			t.Errorf("empty a, k=%d: got %+v", k, got)
		}
	}
	if got := SearchDiagonal(empty, empty, 0); got != (Point{}) {
		t.Errorf("both empty: got %+v", got)
	}
}

func TestSearchDiagonalPanicsOutOfRange(t *testing.T) {
	a := []int32{1}
	b := []int32{2}
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			SearchDiagonal(a, b, k)
		}()
	}
}

func TestSearchDiagonalTieGoesToA(t *testing.T) {
	// With every element equal, the path must consume all of a before any of
	// b: on diagonal k <= |a| the crossing is (k, 0).
	a := []int32{7, 7, 7, 7}
	b := []int32{7, 7, 7}
	for k := 0; k <= 7; k++ {
		want := Point{A: min(k, 4), B: max(0, k-4)}
		if got := SearchDiagonal(a, b, k); got != want {
			t.Errorf("k=%d: got %+v want %+v", k, got, want)
		}
	}
}

func TestDiagonalSearchStepBound(t *testing.T) {
	// Experiment E3 / Theorem 14: at most floor(log2(min(|a|,|b|,k,total-k)))+1
	// comparisons per diagonal; we assert the paper's looser bound
	// log2(min(|a|,|b|))+1.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		na := 1 + rng.Intn(2000)
		nb := 1 + rng.Intn(2000)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		bound := 1
		for m := min(na, nb); m > 1; m >>= 1 {
			bound++
		}
		for _, k := range []int{0, 1, (na + nb) / 3, (na + nb) / 2, na + nb} {
			_, steps := SearchDiagonalCounted(a, b, k)
			if steps > bound {
				t.Fatalf("na=%d nb=%d k=%d: %d comparisons exceeds bound %d", na, nb, k, steps, bound)
			}
		}
	}
}

func TestSearchDiagonalQuick(t *testing.T) {
	// Property: for arbitrary sorted inputs and arbitrary diagonal, the
	// returned point splits the merged output exactly: merging the prefixes
	// gives the first k elements of the full merge.
	f := func(rawA, rawB []int32, kSeed uint16) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		total := len(a) + len(b)
		k := 0
		if total > 0 {
			k = int(kSeed) % (total + 1)
		}
		pt := SearchDiagonal(a, b, k)
		full := make([]int32, total)
		Merge(a, b, full)
		prefix := make([]int32, k)
		Merge(a[:pt.A], b[:pt.B], prefix)
		for i := 0; i < k; i++ {
			if prefix[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearchDiagonal(bench *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := workload.SortedUniform32(rng, 1<<20)
	b := workload.SortedUniform32(rng, 1<<20)
	bench.Run("corank", func(bench *testing.B) {
		for i := 0; i < bench.N; i++ {
			SearchDiagonal(a, b, len(a))
		}
	})
	bench.Run("matrix", func(bench *testing.B) {
		for i := 0; i < bench.N; i++ {
			SearchDiagonalMatrix(a, b, len(a))
		}
	})
}

// SearchDiagonalMatrix is the paper's own formulation of the diagonal
// search (Proposition 13): walk the cross diagonal of the binary merge
// matrix M[i,j] = (a[i] > b[j]) by bisection, looking for the highest point
// whose left neighbour is 1 — i.e. the 1->0 transition. It is algebraically
// identical to SearchDiagonal and exists so the two formulations can be
// property-tested against each other and benchmarked (see the "search
// variant" ablation in DESIGN.md). It is test-only: no production code
// needs a second search.
func SearchDiagonalMatrix[T cmp.Ordered](a, b []T, k int) Point {
	if k < 0 || k > len(a)+len(b) {
		panic("core: diagonal index out of range")
	}
	// Points on diagonal k are (i, j) with i+j = k. Parameterize by i, the
	// a-co-rank, valid over [lo, hi] as in SearchDiagonal. M at the grid cell
	// "entered" by co-rank i is M[i, k-i-1] = (a[i] > b[k-i-1]), defined for
	// lo <= i < hi; the sequence over increasing i is non-decreasing in this
	// parameterization (it reverses the diagonal's geometric order), so we
	// bisect for its first 1.
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	low, high := lo, hi
	for low < high {
		mid := int(uint(low+high) >> 1)
		one := a[mid] > b[k-mid-1] // M[mid, k-mid-1]
		if one {
			high = mid
		} else {
			low = mid + 1
		}
	}
	return Point{A: low, B: k - low}
}
