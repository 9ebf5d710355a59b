package main

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(7, 5000, time.Second, 64)
	b := schedule(7, 5000, time.Second, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 5000, time.Second, 64)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson arrivals: about rate × duration of them, in order, inside
	// the window, on valid rows.
	if n := float64(len(a)); math.Abs(n-5000) > 5*math.Sqrt(5000) {
		t.Errorf("%v arrivals at 5000/s for 1s", n)
	}
	for i, x := range a {
		if x.due < 0 || x.due >= time.Second || x.row < 0 || x.row >= 64 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// fakeClock advances only when the sender sleeps (landing overshoot late)
// or a stub request takes time; spawned requests run inline.
type fakeClock struct {
	t, overshoot time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if c.t < t {
		c.t = t + c.overshoot
	}
}

func (c *fakeClock) spawn(f func()) { f() }
func (c *fakeClock) wait()          {}

// stubServer answers with the row index carried in the features, after
// spending cost[row] on the fake clock; fail and wrong pick rows that
// error or answer a wrong class.
type stubServer struct {
	c           *fakeClock
	cost        map[int]time.Duration
	fail, wrong map[int]bool
}

func (s *stubServer) Predict(f []float64) (int, error) {
	row := int(f[0])
	s.c.t += s.cost[row]
	if s.fail[row] {
		return 0, errors.New("refused")
	}
	if s.wrong[row] {
		return row + 1, nil
	}
	return row, nil
}

func rowsAndWant(n int) ([][]float64, []int) {
	rows := make([][]float64, n)
	want := make([]int, n)
	for i := range rows {
		rows[i] = []float64{float64(i)}
		want[i] = i
	}
	return rows, want
}

func TestLatenessIsChargedFromTheDueTime(t *testing.T) {
	ms := time.Millisecond
	rows, want := rowsAndWant(5)
	sched := []arrival{{0, 0}, {1 * ms, 1}, {2 * ms, 2}, {3 * ms, 3}, {10 * ms, 4}}
	c := &fakeClock{overshoot: 100 * time.Microsecond}
	// Request 0 stalls the (inline) server for 5ms: the sender issues
	// requests 1-3 late, and their latency must include that lateness.
	srv := &stubServer{c: c, cost: map[int]time.Duration{0: 5 * ms}}
	res := runRung(c, srv, rows, want, sched)

	wantLag := []time.Duration{0, 4 * ms, 3 * ms, 2 * ms, 100 * time.Microsecond}
	wantLat := []time.Duration{5 * ms, 4 * ms, 3 * ms, 2 * ms, 100 * time.Microsecond}
	if !reflect.DeepEqual(res.lag, wantLag) {
		t.Errorf("lag = %v, want %v", res.lag, wantLag)
	}
	if !reflect.DeepEqual(res.lat, wantLat) {
		t.Errorf("latency = %v, want %v", res.lat, wantLat)
	}
	if res.sent != 5 || res.failed != 0 || res.wrong != 0 {
		t.Errorf("sent/failed/wrong = %d/%d/%d, want 5/0/0", res.sent, res.failed, res.wrong)
	}
	if res.drain != 100*time.Microsecond {
		t.Errorf("drain = %v, want 100us", res.drain)
	}
}

func TestFailuresAndWrongClassesAreCounted(t *testing.T) {
	rows, want := rowsAndWant(4)
	sched := []arrival{{0, 0}, {time.Millisecond, 1}, {2 * time.Millisecond, 2}, {3 * time.Millisecond, 3}}
	c := &fakeClock{}
	srv := &stubServer{c: c, fail: map[int]bool{1: true}, wrong: map[int]bool{2: true}}
	res := runRung(c, srv, rows, want, sched)
	if res.failed != 1 || res.wrong != 1 {
		t.Fatalf("failed/wrong = %d/%d, want 1/1", res.failed, res.wrong)
	}
	if res.lat[1] != failedLatency {
		t.Errorf("a failed request's latency = %v, want failedLatency", res.lat[1])
	}
}

// deferredClock queues spawned requests and runs them only at wait, as if
// the server never got the CPU while the sender kept sending.
type deferredClock struct {
	fakeClock
	queued []func()
}

func (c *deferredClock) spawn(f func()) { c.queued = append(c.queued, f) }

func (c *deferredClock) wait() {
	for _, f := range c.queued {
		f()
	}
}

func TestRungStopsAtTheInflightBound(t *testing.T) {
	rows, want := rowsAndWant(1)
	sched := make([]arrival, maxInflight+10)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * time.Microsecond}
	}
	c := &deferredClock{}
	res := runRung(c, &stubServer{c: &c.fakeClock}, rows, want, sched)
	if !res.overflow || res.sent != maxInflight || res.inflightMax != maxInflight {
		t.Errorf("overflow %v after %d sends with %d in flight, want an overflow after %d",
			res.overflow, res.sent, res.inflightMax, maxInflight)
	}
	if len(res.lat) != res.sent || res.failed != 0 || res.wrong != 0 {
		t.Errorf("%d latencies, %d failed, %d wrong for %d sent", len(res.lat), res.failed, res.wrong, res.sent)
	}
}

// rowServer answers each row with its index, from any number of
// goroutines; rows in fail error and rows in wrong answer a wrong class.
type rowServer struct {
	fail, wrong int
	calls       atomic.Int64
}

func (s *rowServer) Predict(f []float64) (int, error) {
	s.calls.Add(1)
	row := int(f[0])
	if row == s.fail {
		return 0, errors.New("refused")
	}
	if row == s.wrong {
		return row + 1, nil
	}
	time.Sleep(time.Millisecond)
	return row, nil
}

func TestSaturateCountsAndChecksEveryResponse(t *testing.T) {
	rows, want := rowsAndWant(8)
	srv := &rowServer{fail: 3, wrong: 5}
	s := saturate(srv, rows, want, 4, 20*time.Millisecond, 100*time.Millisecond)
	if s.sent != srv.calls.Load() {
		t.Errorf("sent %d, but the server saw %d calls", s.sent, srv.calls.Load())
	}
	if s.done <= 0 || s.done > s.sent || s.elapsed < 100*time.Millisecond {
		t.Errorf("%d responses in a %v window of %d sent", s.done, s.elapsed, s.sent)
	}
	// Four workers, each on its own rows: worker 3 sends only row 3 and
	// worker 1 rows 1 and 5, so both fail and wrong answers show up.
	if s.failed == 0 || s.wrong == 0 {
		t.Errorf("failed %d, wrong %d; want both counted", s.failed, s.wrong)
	}
}
