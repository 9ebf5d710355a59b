// Package par provides the bounded, deterministic worker pools used by
// the FL runtime and the experiment drivers: ForN and Chunked fan out
// index ranges (per-client evaluation, grid cells, sweeps), and
// TaskStream is the one producer/consumer pipeline both round loops
// train clients on. Parallel width is keyed off GOMAXPROCS; every task
// writes only to task-owned state, so results are identical to a serial
// execution regardless of scheduling.
//
// Extra workers are drawn from one process-wide token budget, and the
// calling goroutine always participates, so nested fan-outs (a parallel
// grid cell whose runtime parallelizes local training) share a single
// concurrency budget instead of multiplying — and can never deadlock:
// when no tokens are available the work simply runs inline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens bounds the number of extra worker goroutines alive across all
// concurrent ForN/Chunked calls in the process.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// Limit returns the parallel width for n independent tasks: GOMAXPROCS
// capped at n (minimum 1).
func Limit(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForN runs fn(i) for every i in [0, n) and returns when all calls have
// completed. Indices are claimed from a shared atomic counter, so long
// tasks do not serialize behind short ones. Up to Limit(n)-1 extra
// workers are spawned if the process-wide budget allows; the calling
// goroutine always works too. fn must confine its writes to
// index-owned state.
func ForN(n int, fn func(i int)) {
	w := Limit(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var idx atomic.Int64
	work := func() {
		for {
			i := int(idx.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < w-1; g++ {
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-tokens
					wg.Done()
				}()
				work()
			}()
		default:
			g = w // budget exhausted; remaining work runs inline
		}
	}
	work()
	wg.Wait()
}

// Task states in a TaskStream. The zero value is idle: never
// submitted, finished, or withdrawn.
const (
	taskIdle    = iota
	taskQueued  // submitted, claimable by a worker or by Wait
	taskRunning // some goroutine is executing the stream's run function
)

// Task is one unit of work in a TaskStream. The caller owns it: a Task
// embedded in a reusable slot is resubmitted round after round without
// allocating. It must not be resubmitted while queued or running.
type Task[T any] struct {
	arg   T
	state int
}

// TaskStream is the bounded producer/consumer pipeline behind both
// round loops. A single consumer goroutine submits tasks with Go and
// consumes them with Wait, in whatever order it chooses: the
// synchronous round loop keeps a fixed window of tasks ahead of its
// fold frontier and waits them in submission order; the
// staleness-bounded asynchronous loop waits each round's commit set in
// (arrival, seq) order while later dispatches keep training. How far
// ahead of the consumer work may run is the caller's policy: the stream
// holds exactly what was submitted.
//
// Producers run on the shared process-wide token budget, capped at
// limit background workers. Wait(t) is the consumption point: a task no
// worker has claimed runs inline on the caller, and while a worker runs
// t the caller runs other queued tasks instead of idling. With no spare
// tokens or GOMAXPROCS=1 the stream therefore degrades to a serial loop
// executing tasks in Wait order. Because the run function must confine
// its writes to task-owned state, results are byte-identical regardless
// of which goroutine ran which task.
//
// Go, Wait and Cancel must be called from a single consumer goroutine.
type TaskStream[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	run     func(T)
	queue   []*Task[T] // submitted, not yet claimed: queue[head:]
	head    int
	workers int // live background workers
	limit   int
}

// NewTaskStream returns a stream that calls run(arg) once per submitted
// task, on at most limit background workers (additionally bounded by
// live GOMAXPROCS and the shared token budget; limit < 1 means every
// task runs inline on the consumer).
func NewTaskStream[T any](limit int, run func(T)) *TaskStream[T] {
	s := &TaskStream[T]{run: run, limit: limit}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Go submits t to run with arg. The run may begin on a background
// worker immediately or inline on the consumer later, at a Wait.
func (s *TaskStream[T]) Go(t *Task[T], arg T) {
	s.mu.Lock()
	t.arg, t.state = arg, taskQueued
	if len(s.queue) == cap(s.queue) && s.head > 0 {
		// Slide the live tail down instead of growing: a window that
		// keeps the queue short reuses one backing array forever.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, t)
	spawn := false
	// Mirror ForN's degradation: background workers only while the live
	// GOMAXPROCS leaves room for the consumer, within the stream's own
	// cap, and within the process-wide budget.
	if s.workers < s.limit && s.workers < runtime.GOMAXPROCS(0)-1 {
		select {
		case tokens <- struct{}{}:
			s.workers++
			spawn = true
		default:
		}
	}
	s.mu.Unlock()
	if spawn {
		go s.worker()
	}
}

func (s *TaskStream[T]) worker() {
	s.mu.Lock()
	for s.head < len(s.queue) {
		s.runLocked(s.pop())
	}
	s.workers--
	s.mu.Unlock()
	<-tokens
}

// pop claims the oldest queued task. The caller holds mu.
func (s *TaskStream[T]) pop() *Task[T] {
	t := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return t
}

// withdraw removes a queued t from the queue. The caller holds mu.
func (s *TaskStream[T]) withdraw(t *Task[T]) {
	q := s.queue[s.head:]
	for i, x := range q {
		if x == t {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			s.queue = s.queue[:len(s.queue)-1]
			break
		}
	}
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	t.state = taskIdle
}

// runLocked runs a claimed task with mu released. The caller holds mu.
func (s *TaskStream[T]) runLocked(t *Task[T]) {
	t.state = taskRunning
	s.mu.Unlock()
	s.run(t.arg)
	s.mu.Lock()
	t.state = taskIdle
	s.cond.Broadcast()
}

// Wait ensures t has run and returns: a still-queued t is claimed and
// run inline on the caller, and while a worker runs t the caller runs
// other queued tasks, sleeping only when none is left. After Wait
// returns, all of t's writes are visible to the caller. Waiting an idle
// task is a no-op.
func (s *TaskStream[T]) Wait(t *Task[T]) {
	s.mu.Lock()
	if t.state == taskQueued {
		s.withdraw(t)
		s.runLocked(t)
	}
	for t.state == taskRunning {
		if s.head < len(s.queue) {
			s.runLocked(s.pop())
		} else {
			s.cond.Wait()
		}
	}
	s.mu.Unlock()
}

// Cancel withdraws a still-queued t, so it never runs, and otherwise
// waits for a running t to finish. After Cancel returns, t is idle and
// nothing in the stream refers to it.
func (s *TaskStream[T]) Cancel(t *Task[T]) {
	s.mu.Lock()
	if t.state == taskQueued {
		s.withdraw(t)
	}
	for t.state == taskRunning {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Chunked splits [0, n) into one contiguous range per worker and runs
// fn(lo, hi) on each. Use it when workers amortize per-worker state
// (e.g. model clones) across their range. Chunks whose worker cannot be
// spawned within the process-wide budget run inline on the caller.
func Chunked(n int, fn func(lo, hi int)) {
	w := Limit(n)
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	base, rem := n/w, n%w
	var wg sync.WaitGroup
	lo := 0
	for g := 0; g < w; g++ {
		sz := base
		if g < rem {
			sz++
		}
		hi := lo + sz
		if g == w-1 {
			fn(lo, hi) // the caller always takes the last chunk
			break
		}
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func(lo, hi int) {
				defer func() {
					<-tokens
					wg.Done()
				}()
				fn(lo, hi)
			}(lo, hi)
		default:
			fn(lo, hi)
		}
		lo = hi
	}
	wg.Wait()
}
