package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// saturation is what one closed-loop window measured.
type saturation struct {
	// done is the number of responses that arrived inside the window,
	// over elapsed.
	done    int64
	elapsed time.Duration
	// sent, failed and wrong count every request of the call, ramp
	// included.
	sent, failed, wrong int64
}

// rate is the responses per second inside the window.
func (s saturation) rate() float64 { return float64(s.done) / s.elapsed.Seconds() }

// saturate keeps conc requests outstanding on srv, each of conc workers
// sending its next request as soon as its last one returns, and counts
// the responses inside a window of length dur that opens once ramp has
// passed. Every response is checked against want, the expected class of
// each row. The closed loop holds the queue full without letting it grow,
// so the window reads the rate the server sustains.
func saturate(srv predictor, rows [][]float64, want []int, conc int, ramp, dur time.Duration) saturation {
	var sent, failed, wrong atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; !stop.Load(); i += conc {
				row := i % len(rows)
				class, err := srv.Predict(rows[row])
				switch {
				case err != nil:
					failed.Add(1)
				case class != want[row]:
					wrong.Add(1)
				}
				sent.Add(1)
			}
		}()
	}
	time.Sleep(ramp)
	t0, n0 := time.Now(), sent.Load()
	time.Sleep(dur)
	t1, n1 := time.Now(), sent.Load()
	stop.Store(true)
	wg.Wait()
	return saturation{
		done: n1 - n0, elapsed: t1.Sub(t0),
		sent: sent.Load(), failed: failed.Load(), wrong: wrong.Load(),
	}
}
