package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// predictor is the serving entry point the open loop drives.
type predictor interface {
	Predict(features []float64) (int, error)
}

// arrival is one scheduled request: when it is due, relative to the start
// of its rung, and which feature row it sends.
type arrival struct {
	due time.Duration
	row int
}

// schedule draws a Poisson arrival schedule at rate requests per second
// over dur, with rows chosen uniformly from nrows. It depends only on its
// arguments, so a seed fixes the offered load exactly.
func schedule(seed int64, rate float64, dur time.Duration, nrows int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, row: rng.Intn(nrows)})
	}
}

// clock is the time source of one open-loop rung. The real clock sleeps;
// tests substitute a fake one to check the lateness accounting.
type clock interface {
	// now is the time since the rung started.
	now() time.Duration
	// sleepUntil returns at or after the rung-relative time t.
	sleepUntil(t time.Duration)
	// spawn runs f, concurrently with the sender for the real clock.
	spawn(f func())
	// wait returns once every spawned f has returned.
	wait()
}

// spinBelow is how close to a request's due time the sender stops
// sleeping and yields in a loop instead. Timer wake-ups on small virtual
// machines overshoot by about half a millisecond, which would otherwise
// be charged to every request as generator lateness; the price is that
// the sender keeps one core busy at rates above ~700 requests/s.
const spinBelow = 1500 * time.Microsecond

type realClock struct {
	start time.Time
	wg    sync.WaitGroup
}

func newRealClock() *realClock { return &realClock{start: time.Now()} }

func (c *realClock) now() time.Duration { return time.Since(c.start) }

func (c *realClock) sleepUntil(t time.Duration) {
	for {
		left := t - time.Since(c.start)
		if left <= 0 {
			return
		}
		if left > spinBelow {
			time.Sleep(left - spinBelow)
		} else {
			runtime.Gosched()
		}
	}
}

func (c *realClock) spawn(f func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		f()
	}()
}

func (c *realClock) wait() { c.wg.Wait() }

// maxInflight bounds the requests a rung keeps outstanding. A rung that
// reaches it has a backlog that is clearly growing; it stops sending, so
// an overloaded rung costs bounded memory and time.
const maxInflight = 16384

// failedLatency stands in for the latency of a request that failed: a
// failure misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// rungResult is what one fixed-rate open-loop rung measured.
type rungResult struct {
	sent   int
	failed int
	wrong  int
	// lat is each request's latency from its due time (not its send
	// time), so a stalled sender charges its stall to the requests it
	// delayed; failed requests read failedLatency.
	lat []time.Duration
	// lag is how late the sender issued each request.
	lag         []time.Duration
	inflightMax int64
	// drain is the time from the last request's due time until the last
	// response arrived.
	drain time.Duration
	// overflow reports that the rung stopped early at maxInflight.
	overflow bool
}

// runRung sends the schedule to srv open-loop: each request is issued at
// its due time whether or not earlier ones have completed, and every
// response is checked against want, the expected class of each row.
func runRung(c clock, srv predictor, rows [][]float64, want []int, sched []arrival) rungResult {
	res := rungResult{
		sent: len(sched),
		lat:  make([]time.Duration, len(sched)),
		lag:  make([]time.Duration, len(sched)),
	}
	status := make([]int8, len(sched)) // 0 ok, 1 failed, 2 wrong class
	// inflight is raised by the sender before it spawns a request, so a
	// sender running behind schedule cannot outrun the count.
	var inflight atomic.Int64
	for i, a := range sched {
		c.sleepUntil(a.due)
		n := inflight.Add(1)
		if n > maxInflight {
			res.overflow = true
			res.sent = i
			break
		}
		res.inflightMax = max(res.inflightMax, n)
		res.lag[i] = c.now() - a.due
		c.spawn(func() {
			class, err := srv.Predict(rows[a.row])
			done := c.now()
			inflight.Add(-1)
			switch {
			case err != nil:
				status[i] = 1
				res.lat[i] = failedLatency
			case class != want[a.row]:
				status[i] = 2
				res.lat[i] = done - a.due
			default:
				res.lat[i] = done - a.due
			}
		})
	}
	c.wait()
	res.lat, res.lag, status = res.lat[:res.sent], res.lag[:res.sent], status[:res.sent]
	for i, s := range status {
		switch s {
		case 1:
			res.failed++
		case 2:
			res.wrong++
		}
		if s != 1 {
			if end := sched[i].due + res.lat[i]; end-sched[res.sent-1].due > res.drain {
				res.drain = end - sched[res.sent-1].due
			}
		}
	}
	return res
}
