package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"mergepath/internal/verify"
	"mergepath/internal/workload"
)

// The two reference kernels below are the loops Merge and MergeSteps ran
// before the adaptive kernel: the plain branching loop, and the
// branch-free loop that X2 measured against it. mergeKernel must match
// both byte for byte on every input, sorted or not, because all three
// evaluate the same predicate a[i] <= b[j] at every step.

// refBranching is the branching reference kernel, in MergeSteps form.
func refBranching[T cmp.Ordered](a, b []T, start Point, steps int, out []T) Point {
	i, j := start.A, start.B
	k := 0
	for k < steps && i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	for k < steps && i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for k < steps && j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
	return Point{A: i, B: j}
}

// refBranchFree is the branch-free reference kernel, in MergeSteps form:
// the take-from-a decision is a 0/1 index step and a conditional move.
func refBranchFree[T cmp.Ordered](a, b []T, start Point, steps int, out []T) Point {
	i, j := start.A, start.B
	k := 0
	for k < steps && i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		d := 0
		if av <= bv {
			d = 1
		}
		v := bv
		if av <= bv {
			v = av
		}
		out[k] = v
		k++
		i += d
		j += 1 - d
	}
	for k < steps && i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for k < steps && j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
	return Point{A: i, B: j}
}

// refKernels names the reference kernels for the differential tests.
func refKernels[T cmp.Ordered]() map[string]func(a, b []T, start Point, steps int, out []T) Point {
	return map[string]func(a, b []T, start Point, steps int, out []T) Point{
		"branching":  refBranching[T],
		"branchfree": refBranchFree[T],
	}
}

// sameBits reports whether x and y hold the same values in the same
// bytes, not just values equal under ==: -0 and +0 compare equal but are
// different outputs of a stable merge, and NaN equals nothing.
func sameBits[T cmp.Ordered](x, y []T) bool {
	return len(x) == len(y) && firstBitDiff(x, y) == len(x)
}

// firstBitDiff returns the first index where x and y differ in their
// bytes, or the shorter length.
func firstBitDiff[T cmp.Ordered](x, y []T) int {
	n := min(len(x), len(y))
	for i := range n {
		switch v := any(x[i]).(type) {
		case float64:
			if math.Float64bits(v) != math.Float64bits(any(y[i]).(float64)) {
				return i
			}
		default:
			if x[i] != y[i] {
				return i
			}
		}
	}
	return n
}

// checkAgainstRefs merges a and b with Merge and with MergeSteps from
// every diagonal start (to the end, and for one chunk), and requires each
// result and end point to match both reference kernels.
func checkAgainstRefs[T cmp.Ordered](t *testing.T, name string, a, b []T, everyStart bool) {
	t.Helper()
	total := len(a) + len(b)
	got := make([]T, total)
	Merge(a, b, got)
	for rname, ref := range refKernels[T]() {
		want := make([]T, total)
		ref(a, b, Point{}, total, want)
		if !sameBits(got, want) {
			t.Fatalf("%s: Merge differs from %s reference at %d", name, rname, firstBitDiff(got, want))
		}
	}
	if !everyStart {
		return
	}
	gotSteps := make([]T, total)
	wantSteps := make([]T, total)
	for k := 0; k <= total; k++ {
		start := SearchDiagonal(a, b, k)
		for _, steps := range []int{total - k, min(total-k, 1+k%(3*kernelBlock))} {
			end := MergeSteps(a, b, start, steps, gotSteps[:steps])
			for rname, ref := range refKernels[T]() {
				wantEnd := ref(a, b, start, steps, wantSteps[:steps])
				if end != wantEnd || !sameBits(gotSteps[:steps], wantSteps[:steps]) {
					t.Fatalf("%s: MergeSteps from %+v for %d steps: end %+v, %s reference %+v, first diff %d",
						name, start, steps, end, rname, wantEnd, firstBitDiff(gotSteps[:steps], wantSteps[:steps]))
				}
			}
		}
	}
}

// blockStraddlingLengths are input lengths on and around multiples of
// kernelBlock, where the kernel's block sizing changes.
var blockStraddlingLengths = []int{0, 1, 2, kernelBlock - 1, kernelBlock, kernelBlock + 1,
	2*kernelBlock - 1, 2 * kernelBlock, 2*kernelBlock + 1, 5*kernelBlock + 3}

func TestMergeKernelMatchesRefsAllKinds(t *testing.T) {
	for _, kind := range workload.Kinds() {
		for _, na := range blockStraddlingLengths {
			for _, nb := range []int{0, kernelBlock - 1, kernelBlock + 1, 700} {
				a, b := workload.Pair(kind, na, nb, int64(na*1000+nb))
				checkAgainstRefs(t, fmt.Sprintf("%s/%dx%d", kind, na, nb), a, b, false)
			}
		}
		a, b := workload.Pair(kind, 3*kernelBlock+5, 2*kernelBlock-3, 41)
		checkAgainstRefs(t, fmt.Sprintf("%s/every-start", kind), a, b, true)
	}
}

// flippingPair builds sorted inputs whose merge path alternates between
// dense stretches (values drawn from one shared range) and sparse ones
// (long runs from one side), so the kernel changes loop mid-merge.
func flippingPair(rng *rand.Rand, segments int) (a, b []int64) {
	var v int64
	for s := 0; s < segments; s++ {
		n := 1 + rng.Intn(4*kernelBlock)
		switch s % 3 {
		case 0: // dense: both sides draw from the same span
			for range n {
				x := v + rng.Int63n(int64(4*n))
				if rng.Intn(2) == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			v += int64(4 * n)
		case 1: // a run from a
			for range n {
				a = append(a, v)
				v += int64(rng.Intn(3))
			}
		case 2: // runs of random length from alternating sides
			for range 1 + n/16 {
				run := 1 + rng.Intn(64)
				for range run {
					if s%2 == 0 {
						a = append(a, v)
					} else {
						b = append(b, v)
					}
					v++
				}
			}
		}
		v++
	}
	slices.Sort(a)
	slices.Sort(b)
	return a, b
}

func TestMergeKernelMatchesRefsDenseSparseFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	for trial := 0; trial < 30; trial++ {
		a, b := flippingPair(rng, 2+rng.Intn(8))
		checkAgainstRefs(t, fmt.Sprintf("trial %d", trial), a, b, len(a)+len(b) <= 1500)
		checkAgainstRefs(t, fmt.Sprintf("trial %d swapped", trial), b, a, false)
	}
}

// TestMergeKernelSignedZeroTies merges float64 inputs full of -0/+0 ties.
// The two zeros are equal under <= but differ in their bytes, so a kernel
// that took a tie from b, or swapped the value it emits, shows up here.
func TestMergeKernelSignedZeroTies(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	negZero := math.Copysign(0, -1)
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			switch rng.Intn(4) {
			case 0:
				s[i] = -1
			case 1:
				s[i] = negZero
			case 2:
				s[i] = 0
			default:
				s[i] = 1
			}
		}
		for i := 1; i < len(s); i++ { // stable insertion sort keeps the zeros' order
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s
	}
	for _, n := range []int{1, kernelBlock + 1, 3*kernelBlock + 7} {
		a, b := mk(n), mk(n+rng.Intn(kernelBlock))
		checkAgainstRefs(t, fmt.Sprintf("n=%d", n), a, b, n < 200)
	}
	// The kernel emits a's -0 before b's +0 and a's +0 before b's -0.
	out := make([]float64, 2)
	Merge([]float64{negZero}, []float64{0}, out)
	if !math.Signbit(out[0]) || math.Signbit(out[1]) {
		t.Fatalf("tie from b: %v", out)
	}
	Merge([]float64{0}, []float64{negZero}, out)
	if math.Signbit(out[0]) || !math.Signbit(out[1]) {
		t.Fatalf("tie from b: %v", out)
	}
}

// TestMergeKernelUnsortedInputs holds the kernel to the references on
// unsorted inputs, NaNs included: the output of all three is fixed by the
// sequence of a[i] <= b[j] outcomes, whatever the input order.
func TestMergeKernelUnsortedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	for trial := 0; trial < 40; trial++ {
		a := make([]float64, rng.Intn(3*kernelBlock))
		b := make([]float64, rng.Intn(3*kernelBlock))
		for _, s := range [][]float64{a, b} {
			for i := range s {
				s[i] = float64(rng.Intn(8))
				if rng.Intn(50) == 0 {
					s[i] = math.NaN()
				}
			}
		}
		checkAgainstRefs(t, fmt.Sprintf("trial %d", trial), a, b, trial < 5)
	}
}

func TestMergeBranchFreeMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	for trial := 0; trial < 120; trial++ {
		kind := workload.Kinds()[trial%len(workload.Kinds())]
		na, nb := rng.Intn(400), rng.Intn(400)
		a, b := workload.Pair(kind, na, nb, int64(trial))
		o1 := make([]int32, na+nb)
		o2 := make([]int32, na+nb)
		Merge(a, b, o1)
		refBranchFree(a, b, Point{}, na+nb, o2)
		if !verify.Equal(o1, o2) {
			t.Fatalf("kind=%v na=%d nb=%d: kernels disagree", kind, na, nb)
		}
	}
}

func TestMergeStepsBranchFreeResumable(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 60; trial++ {
		na, nb := rng.Intn(2*kernelBlock), rng.Intn(2*kernelBlock)
		a := workload.SortedUniform32(rng, na)
		b := workload.SortedUniform32(rng, nb)
		total := na + nb
		want := make([]int32, total)
		refBranchFree(a, b, Point{}, total, want)
		got := make([]int32, total)
		pt := Point{}
		done := 0
		for done < total {
			chunk := 1 + rng.Intn(total-done)
			next := MergeSteps(a, b, pt, chunk, got[done:done+chunk])
			if alt := refBranchFree(a, b, pt, chunk, make([]int32, chunk)); alt != next {
				t.Fatalf("kernels reach different points: %+v vs %+v", next, alt)
			}
			pt = next
			done += chunk
		}
		if !verify.Equal(got, want) {
			t.Fatalf("trial %d: chunked merge differs from the branch-free reference", trial)
		}
	}
}

func TestMergeBranchFreeQuick(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		a, b := sortedCopy(rawA), sortedCopy(rawB)
		out := make([]int32, len(a)+len(b))
		Merge(a, b, out)
		want := make([]int32, len(out))
		refBranchFree(a, b, Point{}, len(want), want)
		return verify.Equal(out, want) && verify.Equal(out, verify.ReferenceMerge(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMergeKernels is experiment X2: the adaptive kernel (Merge)
// against the two reference kernels, on a dense interleaving (uniform)
// and on long runs (runs), for int32 and int64. float64 shows the
// reference branch-free kernel losing its point where the compiler has
// no conditional move for the element type.
func BenchmarkMergeKernels(bench *testing.B) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Runs} {
		a, b := workload.Pair(kind, 1<<20, 1<<20, 7)
		benchKernels(bench, "int32/"+string(kind), a, b)
		benchKernels(bench, "int64/"+string(kind), convert[int64](a), convert[int64](b))
		benchKernels(bench, "float64/"+string(kind), convert[float64](a), convert[float64](b))
	}
}

func benchKernels[T cmp.Ordered](bench *testing.B, name string, a, b []T) {
	out := make([]T, len(a)+len(b))
	size := int64(len(out)) * int64(unsafe.Sizeof(out[0]))
	bench.Run(name+"/selector", func(bench *testing.B) {
		bench.SetBytes(size)
		for i := 0; i < bench.N; i++ {
			Merge(a, b, out)
		}
	})
	for _, rname := range []string{"branching", "branchfree"} {
		ref := refKernels[T]()[rname]
		bench.Run(name+"/"+rname, func(bench *testing.B) {
			bench.SetBytes(size)
			for i := 0; i < bench.N; i++ {
				ref(a, b, Point{}, len(out), out)
			}
		})
	}
}

func convert[T int64 | float64](s []int32) []T {
	w := make([]T, len(s))
	for i, v := range s {
		w[i] = T(v)
	}
	return w
}
