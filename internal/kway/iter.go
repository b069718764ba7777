package kway

import "cmp"

// Iter is a pull-based merged iterator over k sorted lists: the streaming
// counterpart of Merge for consumers that process the merged sequence
// incrementally (cursors over index runs, merge joins) and must not
// materialize it. It keeps a plain binary min-heap of list cursors,
// ordered by head value and then list index, so equal elements come out
// ordered by list index — the same tie rule as Merge. It is the
// package's one cursor heap, and HeapMerge drains it as the test oracle.
type Iter[T cmp.Ordered] struct {
	lists [][]T
	heap  []cursor // binary min-heap of active list cursors
}

type cursor struct {
	list int
	pos  int
}

// NewIter returns an iterator over the merged sequence of lists. The
// lists are not copied; mutating them during iteration is undefined.
func NewIter[T cmp.Ordered](lists [][]T) *Iter[T] {
	it := &Iter[T]{lists: lists}
	for i, l := range lists {
		if len(l) > 0 {
			it.heap = append(it.heap, cursor{list: i})
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.siftDown(i)
	}
	return it
}

// Next returns the next merged element, or ok=false when exhausted.
func (it *Iter[T]) Next() (v T, ok bool) {
	if len(it.heap) == 0 {
		return v, false
	}
	top := it.heap[0]
	v = it.lists[top.list][top.pos]
	if top.pos+1 < len(it.lists[top.list]) {
		it.heap[0].pos++
	} else {
		last := len(it.heap) - 1
		it.heap[0] = it.heap[last]
		it.heap = it.heap[:last]
	}
	it.siftDown(0)
	return v, true
}

// Peek returns the next element without consuming it.
func (it *Iter[T]) Peek() (v T, ok bool) {
	if len(it.heap) == 0 {
		return v, false
	}
	top := it.heap[0]
	return it.lists[top.list][top.pos], true
}

// Remaining reports how many elements are left.
func (it *Iter[T]) Remaining() int {
	n := 0
	for _, c := range it.heap {
		n += len(it.lists[c.list]) - c.pos
	}
	return n
}

// less orders cursors by value, then list index (stability).
func (it *Iter[T]) less(x, y cursor) bool {
	vx := it.lists[x.list][x.pos]
	vy := it.lists[y.list][y.pos]
	if vx != vy {
		return vx < vy
	}
	return x.list < y.list
}

func (it *Iter[T]) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(it.heap) && it.less(it.heap[l], it.heap[smallest]) {
			smallest = l
		}
		if r < len(it.heap) && it.less(it.heap[r], it.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		it.heap[i], it.heap[smallest] = it.heap[smallest], it.heap[i]
		i = smallest
	}
}
