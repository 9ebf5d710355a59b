package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForNCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 3, 7, 100} {
			withGOMAXPROCS(procs, func() {
				counts := make([]int32, n)
				ForN(n, func(i int) {
					atomic.AddInt32(&counts[i], 1)
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("procs=%d n=%d: index %d ran %d times", procs, n, i, c)
					}
				}
			})
		}
	}
}

func TestChunkedCoversRangeExactly(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, 5, 97} {
			withGOMAXPROCS(procs, func() {
				counts := make([]int32, n)
				Chunked(n, func(lo, hi int) {
					if lo > hi || lo < 0 || hi > n {
						t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("procs=%d n=%d: index %d covered %d times", procs, n, i, c)
					}
				}
			})
		}
	}
}

// TestNestedForNDoesNotDeadlock exercises the shared token budget: an
// outer fan-out whose workers each fan out again must complete (inner
// calls degrade to inline execution when the budget is exhausted).
func TestNestedForNDoesNotDeadlock(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var total atomic.Int64
		ForN(8, func(i int) {
			ForN(8, func(j int) {
				total.Add(1)
			})
		})
		if got := total.Load(); got != 64 {
			t.Fatalf("nested ForN ran %d tasks, want 64", got)
		}
	})
}

func TestLimit(t *testing.T) {
	withGOMAXPROCS(4, func() {
		if got := Limit(2); got != 2 {
			t.Fatalf("Limit(2) = %d, want 2", got)
		}
		if got := Limit(100); got != 4 {
			t.Fatalf("Limit(100) = %d, want 4", got)
		}
		if got := Limit(0); got != 1 {
			t.Fatalf("Limit(0) = %d, want 1", got)
		}
	})
}

// TestTaskStreamRunsEveryTaskOnce submits a batch of tasks and waits
// them in a scrambled, consumer-chosen order: every task must run
// exactly once and its writes must be visible after Wait, at any
// parallelism.
func TestTaskStreamRunsEveryTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			for _, limit := range []int{0, 1, 8} {
				const n = 100
				ran := make([]int32, n)
				out := make([]int, n)
				s := NewTaskStream(limit, func(i int) {
					atomic.AddInt32(&ran[i], 1)
					out[i] = i * i
				})
				tasks := make([]Task[int], n)
				for i := range tasks {
					s.Go(&tasks[i], i)
				}
				// Wait in a deterministic but non-submission order.
				for k := 0; k < n; k++ {
					i := (k*37 + 11) % n
					s.Wait(&tasks[i])
					if out[i] != i*i {
						t.Fatalf("procs %d limit %d: task %d result not visible after Wait", procs, limit, i)
					}
				}
				for i := range ran {
					if ran[i] != 1 {
						t.Fatalf("procs %d limit %d: task %d ran %d times", procs, limit, i, ran[i])
					}
				}
			}
		})
	}
}

// TestTaskStreamWaitIdempotent pins that waiting an unsubmitted or
// finished task is a no-op and never re-runs it.
func TestTaskStreamWaitIdempotent(t *testing.T) {
	var runs int32
	s := NewTaskStream(4, func(struct{}) { atomic.AddInt32(&runs, 1) })
	var tk Task[struct{}]
	s.Wait(&tk) // never submitted: idle
	s.Go(&tk, struct{}{})
	s.Wait(&tk)
	s.Wait(&tk)
	s.Wait(&tk)
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("task ran %d times across repeated Waits, want 1", got)
	}
}

// TestTaskStreamCrossEpochStaleTasks models the asynchronous round
// loop's stale-path: tasks submitted in epoch r are left unconsumed
// while later epochs submit and consume their own work, then the stale
// stragglers are finally waited several epochs later. Results must be
// intact regardless of how long a task stayed outstanding.
func TestTaskStreamCrossEpochStaleTasks(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			type item struct {
				tk    Task[*item]
				epoch int
				v     int
				val   int
			}
			s := NewTaskStream(4, func(it *item) { it.val = it.v })
			var stale []*item
			sum := 0
			for epoch := 0; epoch < 6; epoch++ {
				// Two fresh tasks per epoch; consume one now, strand one.
				for j := 0; j < 2; j++ {
					v := epoch*10 + j
					it := &item{epoch: epoch, v: v}
					s.Go(&it.tk, it)
					if j == 0 {
						s.Wait(&it.tk)
						if it.val != v {
							t.Fatalf("procs %d: fresh task value %d, want %d", procs, it.val, v)
						}
						sum += it.val
					} else {
						stale = append(stale, it)
					}
				}
				// Bounded staleness: anything older than 2 epochs is forced.
				keep := stale[:0]
				for _, it := range stale {
					if epoch-it.epoch >= 2 {
						s.Wait(&it.tk)
						sum += it.val
					} else {
						keep = append(keep, it)
					}
				}
				stale = keep
			}
			for _, it := range stale {
				s.Wait(&it.tk)
				sum += it.val
			}
			want := 0
			for epoch := 0; epoch < 6; epoch++ {
				want += epoch*10 + (epoch*10 + 1)
			}
			if sum != want {
				t.Fatalf("procs %d: stale-task sum %d, want %d", procs, sum, want)
			}
		})
	}
}

// TestTaskStreamWaitRunsQueuedWork pins that Wait does not idle while a
// worker runs its target: with the only background worker busy on a
// task that cannot finish until a second, still-queued task has run,
// Wait must run that queued task itself.
func TestTaskStreamWaitRunsQueuedWork(t *testing.T) {
	withGOMAXPROCS(4, func() {
		started := make(chan struct{})
		unblock := make(chan struct{})
		s := NewTaskStream(1, func(i int) {
			if i == 1 {
				close(unblock)
				return
			}
			close(started)
			select {
			case <-unblock:
			case <-time.After(10 * time.Second):
				t.Error("Wait idled while a task it could run stayed queued")
			}
		})
		var a, b Task[int]
		for {
			s.Go(&a, 0)
			s.mu.Lock()
			spawned := s.workers == 1
			s.mu.Unlock()
			if spawned {
				break
			}
			// Another test's worker still held the token: withdraw a
			// and retry once the budget frees up.
			s.Cancel(&a)
			time.Sleep(time.Millisecond)
		}
		<-started // the worker holds a
		s.Go(&b, 1)
		s.Wait(&a)
		s.Wait(&b)
	})
}

// TestTaskStreamCancel pins the abort path: Cancel withdraws queued
// tasks, which then never run, and waits out a running one, whose
// writes are complete when Cancel returns.
func TestTaskStreamCancel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			const n = 64
			var state [n]int32 // 0 untouched, 1 half-written, 2 complete
			s := NewTaskStream(4, func(i int) {
				atomic.StoreInt32(&state[i], 1)
				time.Sleep(time.Microsecond)
				atomic.StoreInt32(&state[i], 2)
			})
			tasks := make([]Task[int], n)
			for i := range tasks {
				s.Go(&tasks[i], i)
			}
			s.Wait(&tasks[0])
			for i := 1; i < n; i++ {
				s.Cancel(&tasks[i])
			}
			for i := range state {
				if st := atomic.LoadInt32(&state[i]); st == 1 {
					t.Fatalf("procs %d: task %d half-written after Cancel", procs, i)
				}
			}
			// Everything is idle: a late run of a withdrawn task would
			// show up here.
			time.Sleep(10 * time.Millisecond)
			ran := 0
			for i := range state {
				if st := atomic.LoadInt32(&state[i]); st == 2 {
					ran++
				} else if st != 0 {
					t.Fatalf("procs %d: task %d ran after Cancel", procs, i)
				}
			}
			if procs == 1 && ran != 1 {
				t.Fatalf("procs 1: %d tasks ran, want only the waited one", ran)
			}
			if len(s.queue) != 0 {
				t.Fatalf("procs %d: %d tasks still queued after Cancel", procs, len(s.queue))
			}
		})
	}
}

// TestTaskStreamSlidingWindow drives the synchronous round loop's
// pattern — a fixed window of caller-owned tasks resubmitted ahead of an
// in-order frontier — and pins that it runs every task once in
// frontier order, allocates nothing once warm on the serial path, and
// keeps the queue's backing array bounded by the window.
func TestTaskStreamSlidingWindow(t *testing.T) {
	const window, n = 4, 5000
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			ran := make([]int32, n)
			s := NewTaskStream(window, func(i int) { atomic.AddInt32(&ran[i], 1) })
			var slots [window]Task[int]
			pass := func() {
				for i := 0; i < window; i++ {
					s.Go(&slots[i], i)
				}
				for i := 0; i < n; i++ {
					s.Wait(&slots[i%window])
					if got := atomic.LoadInt32(&ran[i]); got < 1 {
						t.Fatalf("procs %d: task %d not run at its Wait", procs, i)
					}
					if next := i + window; next < n {
						s.Go(&slots[i%window], next)
					}
				}
			}
			pass()
			for i := range ran {
				if ran[i] != 1 {
					t.Fatalf("procs %d: task %d ran %d times", procs, i, ran[i])
				}
			}
			if c := cap(s.queue); c > 2*window {
				t.Fatalf("procs %d: queue capacity %d for a window of %d", procs, c, window)
			}
			if procs == 1 {
				if allocs := testing.AllocsPerRun(3, func() {
					for i := range ran {
						ran[i] = 0
					}
					pass()
				}); allocs != 0 {
					t.Fatalf("sliding window allocates %.1f times per pass, want 0", allocs)
				}
			}
		})
	}
}
