package core

import "cmp"

// Merge merges the sorted slices a and b into out, which must have length
// len(a)+len(b) and must not overlap either input. The merge is stable with a preceding b: equal elements keep
// their relative order, with ties resolved in favour of a. This is the
// sequential kernel every parallel variant in this repository bottoms out
// in; it is also the "truly sequential merge" baseline of the paper's
// single-thread overhead remark (Section VI).
//
// Merge adapts its loop to the shape of the merge path. It works in
// blocks of 128 outputs and counts the switches between a and b in each.
// After a dense block (a mean run under 8 elements) it runs the next one
// branch-free, so that a take-a-or-b choice the branch predictor cannot
// learn costs no mispredictions. After a sparse block it runs a loop that
// copies each run while it stays on one side. Both loops apply the same
// tie rule, so the output does not depend on which one ran.
func Merge[T cmp.Ordered](a, b, out []T) {
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	mergeKernel(a, b, 0, 0, out)
}

// MergeFunc is Merge under a caller-supplied strict weak ordering.
// less(x, y) reports whether x must order before y. Stability matches
// Merge: an element of b is emitted before an element of a only when it is
// strictly less.
func MergeFunc[T any](a, b, out []T, less func(x, y T) bool) {
	if len(out) != len(a)+len(b) {
		panic("core: output length mismatch")
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}

// MergeSteps advances a merge of a and b by exactly steps elements starting
// from the co-rank point start, writing the emitted elements to out[:steps].
// It returns the co-rank point reached. This is the worker kernel of
// Algorithm 1 (each worker executes (|A|+|B|)/p steps of sequential merge
// from its diagonal intersection) and of Algorithm 2's in-window merges.
// It runs the same adaptive loop as Merge, starting branch-free.
//
// start must be a valid merge-path point for (a, b) — i.e. one produced by
// SearchDiagonal — and steps must not exceed the remaining path length.
func MergeSteps[T cmp.Ordered](a, b []T, start Point, steps int, out []T) Point {
	if steps < 0 || start.Diagonal()+steps > len(a)+len(b) {
		panic("core: merge steps out of range")
	}
	if len(out) < steps {
		panic("core: output shorter than step count")
	}
	i, j := mergeKernel(a, b, start.A, start.B, out[:steps])
	return Point{A: i, B: j}
}

// kernelBlock is how many outputs the merge kernel emits between choices
// of loop. Short enough to follow a path that changes shape mid-merge,
// long enough that the choice costs nothing per element.
const kernelBlock = 128

// denseRunLen is the mean run length below which a block counts as
// dense: the next block then runs branch-free.
const denseRunLen = 8

// mergeKernel writes len(out) elements of the merge of a and b, starting
// at co-rank (i, j), and returns the co-rank reached. Merge and
// MergeSteps run it, so every Ordered merge in the repository does. It
// takes a[i] when a[i] <= b[j], and nothing else decides the output: it
// matches a plain branching merge byte for byte on any input.
//
// Paper §VI: per-element costs, not partitioning, bound merging, and the
// largest is the take-a-or-b branch. On a dense interleaving the
// predictor loses it about half the time; on long runs it is nearly
// free. So the kernel works in blocks of kernelBlock outputs, counts the
// runs in each, and picks the loop for the next block:
//
//   - dense (mean run under denseRunLen): branch-free. The comparison
//     becomes a 0/1 step d of both input positions, and the output is
//     written by two stores, x then y at o[t+d]: y lands on o[t] when it
//     is taken and on the next slot, overwritten next step, when it is
//     not. Unlike a conditional move, this holds for every element type
//     (amd64 has no conditional move for floats).
//   - sparse: run copy. Inner loops copy while the run stays on one side,
//     one predictable comparison per element.
//
// A block never holds more than either input has left, so neither loop
// tests for an exhausted input; after one runs out, a loop copies the
// rest of the other. out must not overlap a or b: the dense loop writes
// one slot ahead.
//
// The selection is written out in place, not through a helper: a helper
// that the compiler inlines in this package can still be called out of
// line from a generic instantiation linked into a binary, and that call
// costs more than the branch it removes. scripts/kernel-codegen.sh checks
// the int64 and float64 instantiations in cmd/mergepathd for calls.
func mergeKernel[T cmp.Ordered](a, b []T, i, j int, out []T) (int, int) {
	// The inputs and positions live in two small arrays, which the
	// compiler keeps in memory: the inner loops then have every
	// register to themselves instead of reloading the outer state on
	// each iteration.
	bufs := [3][]T{a, b, out}
	at := [3]int{i, j, 0}
	dense := true
	for {
		m := min(len(bufs[2])-at[2], len(bufs[0])-at[0], len(bufs[1])-at[1], kernelBlock)
		if m <= 0 {
			break
		}
		// Three windows of one length m: x from a, y from b, o of out.
		// s and r count what the block took from x and from y; keeping
		// both, rather than deriving r as t-s, keeps the subtraction off
		// the loop's load-compare-advance chain.
		x := bufs[0][at[0] : at[0]+m : at[0]+m]
		y := bufs[1][at[1] : at[1]+m : at[1]+m]
		o := bufs[2][at[2] : at[2]+m]
		s, r, runs := 0, 0, 0
		if dense {
			// The last output is written apart, since its second store
			// would land past the block.
			last := 0
			head := o[:m-1]
			for t := range head {
				xv, yv := x[s], y[r]
				d := 0
				if xv <= yv {
					d = 1
				}
				head[t] = xv
				o[t+d] = yv
				runs += d ^ last
				last = d
				s += d
				r += 1 - d
			}
			if xv, yv := x[s], y[r]; xv <= yv {
				o[m-1] = xv
				s++
			} else {
				o[m-1] = yv
				r++
			}
		} else {
			for t := 0; t < m; runs++ {
				if yv := y[r]; x[s] <= yv {
					for {
						o[t] = x[s]
						s++
						t++
						if t == m || !(x[s] <= yv) {
							break
						}
					}
				} else {
					xv := x[s]
					for {
						o[t] = yv
						r++
						t++
						if t == m {
							break
						}
						if yv = y[r]; xv <= yv {
							break
						}
					}
				}
			}
		}
		at[0] += s
		at[1] += r
		at[2] += m
		dense = runs*denseRunLen > m
	}
	a, b, out = bufs[0], bufs[1], bufs[2]
	i, j, k := at[0], at[1], at[2]
	for ; k < len(out) && i < len(a); k++ {
		out[k] = a[i]
		i++
	}
	for ; k < len(out) && j < len(b); k++ {
		out[k] = b[j]
		j++
	}
	return i, j
}

// MergeStepsFunc is MergeSteps under a caller-supplied ordering.
func MergeStepsFunc[T any](a, b []T, start Point, steps int, out []T, less func(x, y T) bool) Point {
	if steps < 0 || start.Diagonal()+steps > len(a)+len(b) {
		panic("core: merge steps out of range")
	}
	if len(out) < steps {
		panic("core: output shorter than step count")
	}
	i, j := start.A, start.B
	k := 0
	for k < steps && i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
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

// Path materializes the full merge path of a and b as the sequence of
// len(a)+len(b)+1 co-rank points it visits, starting at {0,0} and ending at
// {len(a),len(b)}. Constructing the path costs a full merge's worth of
// comparisons (the reason the paper partitions *without* building it); it
// exists for tests, visualization, and the property-based validation of
// SearchDiagonal: Path(a,b)[k] == SearchDiagonal(a,b,k) for every k.
func Path[T cmp.Ordered](a, b []T) []Point {
	path := make([]Point, 0, len(a)+len(b)+1)
	i, j := 0, 0
	path = append(path, Point{})
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a):
			j++
		case j == len(b):
			i++
		case a[i] <= b[j]: // path moves down: M[i,j] = (a[i] > b[j]) is 0
			i++
		default: // path moves right
			j++
		}
		path = append(path, Point{A: i, B: j})
	}
	return path
}
