// Package sched is a fixed-worker, dependency-counting task scheduler —
// the execution model of the Plurality Hypercore the paper reports results
// on in §VI ("a many-core architecture ... that supports fine-grain
// task-level parallelism"). The paper's algorithms are expressed there as
// small tasks with data dependencies rather than fork/join rounds; this
// package provides that substrate so the dataflow formulation of the
// merge sort (psort.SortDataflow) can be built and compared against the
// barrier-per-round formulation.
//
// Usage: build a Graph of tasks with Add (declaring dependencies), then
// Run it on w workers. Tasks whose dependency count reaches zero become
// ready; workers drain the ready queue until every task has run. The
// scheduler itself is deliberately simple — a single shared ready queue,
// no stealing, no priorities — because its role is structural, not
// performance-tuned.
//
// Round is the barrier-per-round counterpart: it runs one round of
// independent merges on a bounded number of workers, which is how the
// merge sorts and the k-way merge tree keep to their worker count p.
package sched

import "sync"

// Task is a node in a Graph. Created by Graph.Add.
type Task struct {
	run     func()
	pending int
	succs   []*Task
}

// Graph is a DAG of tasks under construction. The zero value is usable.
type Graph struct {
	tasks []*Task
}

// Add creates a task executing run after every task in deps has finished.
// Dependencies must already belong to the graph; Add must not be called
// concurrently with Run.
func (g *Graph) Add(run func(), deps ...*Task) *Task {
	if run == nil {
		panic("sched: nil task body")
	}
	t := &Task{run: run, pending: len(deps)}
	for _, d := range deps {
		if d == nil {
			panic("sched: nil dependency")
		}
		d.succs = append(d.succs, t)
	}
	g.tasks = append(g.tasks, t)
	return t
}

// Len reports the number of tasks in the graph.
func (g *Graph) Len() int { return len(g.tasks) }

// Run executes the graph on w workers and blocks until every task has
// finished. It panics if w < 1 or if the graph has no runnable task while
// unfinished tasks remain (a dependency cycle).
func (g *Graph) Run(w int) {
	if w < 1 {
		panic("sched: need at least one worker")
	}
	n := len(g.tasks)
	if n == 0 {
		return
	}
	// Validate acyclicity up front (Kahn's algorithm on scratch counts) so
	// a malformed graph panics instead of deadlocking the workers.
	scratch := make(map[*Task]int, n)
	queue := make([]*Task, 0, n)
	for _, t := range g.tasks {
		scratch[t] = t.pending
		if t.pending == 0 {
			queue = append(queue, t)
		}
	}
	processed := 0
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		for _, s := range t.succs {
			scratch[s]--
			if scratch[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != n {
		panic("sched: dependency cycle")
	}

	ready := make(chan *Task, n)
	for _, t := range g.tasks {
		if t.pending == 0 {
			ready <- t
		}
	}

	var mu sync.Mutex
	remaining := n
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case t := <-ready:
					t.run()
					mu.Lock()
					for _, s := range t.succs {
						s.pending--
						if s.pending == 0 {
							ready <- s
						}
					}
					remaining--
					finished := remaining == 0
					mu.Unlock()
					if finished {
						close(done)
						return
					}
				case <-done:
					return
				}
			}
		}()
	}
	wg.Wait()
	if remaining != 0 {
		panic("sched: deadlock — tasks remained blocked (dependency cycle)")
	}
	// Reset for idempotent re-Run misuse detection: graphs are single-shot.
	g.tasks = nil
}
