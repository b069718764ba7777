package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

func TestParallelMergeAllWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, kind := range workload.Kinds() {
		for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
			na, nb := 1000+rng.Intn(2000), 1000+rng.Intn(2000)
			a, b := workload.Pair(kind, na, nb, 99)
			out := make([]int32, na+nb)
			ParallelMerge(a, b, out, p)
			want := verify.ReferenceMerge(a, b)
			if !verify.Equal(out, want) {
				t.Fatalf("kind=%v p=%d: parallel merge differs from reference", kind, p)
			}
		}
	}
}

func TestParallelMergeTinyInputs(t *testing.T) {
	// p can exceed the total element count; empty inputs are legal.
	for _, p := range []int{1, 2, 5, 64} {
		for na := 0; na <= 4; na++ {
			for nb := 0; nb <= 4; nb++ {
				a := make([]int32, na)
				b := make([]int32, nb)
				for i := range a {
					a[i] = int32(2 * i)
				}
				for i := range b {
					b[i] = int32(2*i + 1)
				}
				out := make([]int32, na+nb)
				ParallelMerge(a, b, out, p)
				if !verify.IsMergeOf(out, a, b) {
					t.Fatalf("p=%d na=%d nb=%d: bad merge %v", p, na, nb, out)
				}
			}
		}
	}
}

func TestParallelMergePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for p=0")
			}
		}()
		ParallelMerge([]int32{1}, []int32{2}, make([]int32, 2), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad output length")
			}
		}()
		ParallelMerge([]int32{1}, []int32{2}, make([]int32, 3), 2)
	}()
}

func TestParallelMergeFuncStability(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		na, nb := rng.Intn(500), rng.Intn(500)
		p := 1 + rng.Intn(8)
		keysA := workload.SortedUniform(rng, na, 10)
		keysB := workload.SortedUniform(rng, nb, 10)
		a := verify.Tag(keysA, 0)
		b := verify.Tag(keysB, 1)
		out := make([]verify.Tagged, na+nb)
		ParallelMergeFunc(a, b, out, p, verify.TaggedLess)
		if !verify.StableMergeOrder(out) {
			t.Fatalf("trial %d p=%d: parallel merge not stable", trial, p)
		}
	}
}

// TestParallelMergePrepartitioned merges over arbitrary, deliberately
// uneven covers of the merge path: any set of diagonal cuts yields
// segments that merge independently (Corollary 7 without the balance).
func TestParallelMergePrepartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		na, nb := rng.Intn(800), rng.Intn(800)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		want := verify.ReferenceMerge(a, b)

		// Deliberately uneven partition: cut at random diagonals.
		cuts := 1 + rng.Intn(6)
		ks := make([]int, 0, cuts+2)
		ks = append(ks, 0)
		for i := 0; i < cuts; i++ {
			ks = append(ks, rng.Intn(na+nb+1))
		}
		ks = append(ks, na+nb)
		// Insertion sort the cut list.
		for i := 1; i < len(ks); i++ {
			for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
				ks[j], ks[j-1] = ks[j-1], ks[j]
			}
		}
		bounds := make([]Point, len(ks))
		for i, k := range ks {
			bounds[i] = SearchDiagonal(a, b, k)
		}
		// Each segment runs on its own goroutine from its own boundary
		// point, with nothing shared but the input and disjoint output.
		out := make([]int32, na+nb)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(bounds); i++ {
			wg.Add(1)
			go func(start, end Point) {
				defer wg.Done()
				lo, hi := start.Diagonal(), end.Diagonal()
				if got := MergeSteps(a, b, start, hi-lo, out[lo:hi]); got != end {
					t.Errorf("segment from %+v ended at %+v, want %+v", start, got, end)
				}
			}(bounds[i], bounds[i+1])
		}
		wg.Wait()
		if !verify.Equal(out, want) {
			t.Fatalf("trial %d: prepartitioned merge differs (cuts %v)", trial, ks)
		}
	}
}

func TestParallelMergeQuick(t *testing.T) {
	f := func(rawA, rawB []int32, pSeed uint8) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		p := 1 + int(pSeed)%12
		out := make([]int32, len(a)+len(b))
		ParallelMerge(a, b, out, p)
		return verify.Equal(out, verify.ReferenceMerge(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParallelMerge1M(bench *testing.B) {
	rng := rand.New(rand.NewSource(34))
	a := workload.SortedUniform32(rng, 1<<20)
	b := workload.SortedUniform32(rng, 1<<20)
	out := make([]int32, len(a)+len(b))
	for _, p := range []int{1, 2, 4, 8} {
		bench.Run(benchName(p), func(bench *testing.B) {
			bench.SetBytes(int64(len(out) * 4))
			for i := 0; i < bench.N; i++ {
				ParallelMerge(a, b, out, p)
			}
		})
	}
}

func benchName(p int) string {
	return "p=" + string(rune('0'+p/10)) + string(rune('0'+p%10))
}
