package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"fedtrans"
)

// fixtureRows is the size of the feature-row pool the generator draws
// requests from.
const fixtureRows = 256

// window is the length of every timed serving window, open-loop or
// closed-loop; at the reference rates an open-loop window holds enough
// requests to support a p99.
const window = 250 * time.Millisecond

// warmup is the untimed reference-rate rung that a new server starts
// with. A fresh server serves slower at first (request goroutine stacks
// and the server's pools are still growing), and a reference window there
// would read a different p50 from the rest.
const warmup = 250 * time.Millisecond

// ramp is how long a closed-loop window runs before it starts counting:
// long enough for the workers' first requests to fill the queue.
const ramp = 50 * time.Millisecond

// satConc is the number of requests the closed loop keeps outstanding:
// two full batches, so one waits whole while the other is computed.
const satConc = 2 * fedtrans.DefaultMaxBatch

// serveRound is the length of one serving round: one reference window
// and one closed-loop window.
const serveRound = window + ramp + window

// minRounds is the least number of serving rounds a run makes: enough
// for the percentiles over rounds (see servingRounds) to skip the fastest
// and the slowest rounds.
const minRounds = 20

// deployModel0 exports the session's model 0 and loads it for serving.
func deployModel0(s *fedtrans.Session) (*fedtrans.Deployed, error) {
	blob, err := s.ExportModel(0)
	if err != nil {
		return nil, err
	}
	return fedtrans.LoadModel(blob)
}

// servingFixture draws the request rows from seed and records the class
// the deployed model gives each one on the direct path, which every
// served response must reproduce.
func servingFixture(d *fedtrans.Deployed, seed int64) ([][]float64, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, fixtureRows)
	want := make([]int, fixtureRows)
	for i := range rows {
		rows[i] = make([]float64, d.InputDim())
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
		c, err := d.Predict(rows[i])
		if err != nil {
			return nil, nil, err
		}
		want[i] = c
	}
	return rows, want, nil
}

// loadGen drives one inference server, open-loop or closed-loop, and
// checks every response against the direct path.
type loadGen struct {
	r    *report
	w    workload
	srv  *fedtrans.InferenceServer
	rows [][]float64
	want []int
	seed int64
	n    int64 // rungs run so far; salts each rung's schedule seed
	// procs is the GOMAXPROCS to restore on close.
	procs int
}

// newLoadGen starts an inference server over d and confines the process
// to one scheduler thread until close: the sender, the request goroutines
// and the dispatcher then share one core. On a small virtual machine,
// waking a second, idle virtual CPU for the dispatcher stalls for
// milliseconds at random, and those stalls, not the server, would set
// the tail latency.
func newLoadGen(r *report, w workload, d *fedtrans.Deployed, seed int64) (*loadGen, error) {
	rows, want, err := servingFixture(d, seed)
	if err != nil {
		return nil, err
	}
	g := &loadGen{r: r, w: w, rows: rows, want: want, seed: seed, procs: runtime.GOMAXPROCS(1)}
	g.srv = fedtrans.NewInferenceServer(d, 0)
	return g, nil
}

func (g *loadGen) close() {
	g.srv.Close()
	runtime.GOMAXPROCS(g.procs)
}

// rung offers rate for dur and reports what it saw.
func (g *loadGen) rung(rate float64, dur time.Duration) rungResult {
	g.n++
	sched := schedule(g.seed*1_000_003+g.n, rate, dur, len(g.rows))
	res := runRung(newRealClock(), g.srv, g.rows, g.want, sched)
	g.r.attempted += int64(res.sent)
	g.r.failed += int64(res.failed)
	g.r.check(res.wrong == 0, "%s: %d of %d served classes differ from Deployed.Predict at %g/s",
		g.w.name, res.wrong, res.sent, rate)
	lat, lag := summarizeMicros(res.lat), summarizeMicros(res.lag)
	fmt.Printf("rung %9.0f/s sent %6d failed %d p50 %9.1fus p%g %9.1fus drain %9.1fus lag p%g %8.1fus inflight<=%d overflow=%v\n",
		rate, res.sent, res.failed, lat.p50, lat.tailP, lat.tail,
		float64(res.drain)/float64(time.Microsecond), lag.tailP, lag.tail, res.inflightMax, res.overflow)
	return res
}

// reference runs one window at the reference rate and returns its p50
// and p99.
func (g *loadGen) reference() (p50, p99 float64) {
	s := summarizeMicros(g.rung(g.w.serveRate, window).lat)
	g.r.check(s.tailP >= 99, "%s: a window of %d requests does not support a p99", g.w.name, s.n)
	return s.p50, s.tail
}

// saturate runs one closed-loop window and reports what it saw.
func (g *loadGen) saturate() float64 {
	s := saturate(g.srv, g.rows, g.want, satConc, ramp, window)
	g.r.attempted += s.sent
	g.r.failed += s.failed
	g.r.check(s.wrong == 0, "%s: %d of %d served classes differ from Deployed.Predict under saturation",
		g.w.name, s.wrong, s.sent)
	fmt.Printf("saturate %d outstanding: %9.0f/s over %v (%d sent, %d failed)\n",
		satConc, s.rate(), s.elapsed.Round(time.Millisecond), s.sent, s.failed)
	return s.rate()
}

// servingRounds gathers the serving rounds of a run: a reference window
// followed by a closed-loop window.
//
// The host runs this single-threaded serving at one of two speeds about
// 1.7 times apart, switching every second or so, and the share of fast
// spells drifts over minutes (on the cifar10 model a window's p50 at the
// reference rate reads 12 or 20 us, its saturated rate 95000 or
// 57000/s). A mean or median over rounds follows that share: in one set
// of ten runs they spread 0.27-0.37 (IQR over median). The metrics
// therefore read the slow level, which nearly every run visits: the 90th
// percentile over rounds of the window p50, and the 10th percentile of
// the saturated rate. Recomputed from the same runs, these spread
// 0.02-0.12 and 0.05-0.21.
type servingRounds struct {
	p50s, p99s, rates []float64
}

// serve loads blob, an exported model, behind a new server, warms it up
// and runs serving rounds on it until the next round would end past
// deadline, and at least min of them. It starts from a collected heap,
// so the training garbage is not swept during the timed windows.
func (sv *servingRounds) serve(r *report, w workload, blob []byte, seed int64, deadline time.Time, min int) error {
	debug.FreeOSMemory()
	d, err := fedtrans.LoadModel(blob)
	if err != nil {
		return err
	}
	g, err := newLoadGen(r, w, d, seed)
	if err != nil {
		return err
	}
	defer g.close()
	g.rung(w.serveRate, warmup)
	for i := 0; i < min || time.Now().Add(serveRound).Before(deadline); i++ {
		p50, p99 := g.reference()
		sv.p50s, sv.p99s = append(sv.p50s, p50), append(sv.p99s, p99)
		sv.rates = append(sv.rates, g.saturate())
	}
	return nil
}

// report sets the end-to-end serving metrics.
func (sv *servingRounds) report(r *report, w workload) {
	p50s, rates := sortedCopy(sv.p50s), sortedCopy(sv.rates)
	r.set("predict_p50_us", percentile(p50s, 90))
	r.set("predict_p99_us", median(sv.p99s))
	r.note("predict_p50_us", fmt.Sprintf("p90 over %d %v windows at %g/s", len(p50s), window, w.serveRate))
	r.set("predict_max_rps", percentile(rates, 10))
	r.note("predict_max_rps", fmt.Sprintf("p10 over %d %v windows with %d outstanding", len(rates), window, satConc))
}

// traceServing runs one reference-rate window and reports the serving
// layer's counters, plus the direct-path replay of the deployed model.
func traceServing(r *report, w workload, d *fedtrans.Deployed, seed int64) error {
	g, err := newLoadGen(r, w, d, seed)
	if err != nil {
		return err
	}
	ref := g.rung(w.serveRate, window)
	g.close()
	lag, lat := summarizeMicros(ref.lag), summarizeMicros(ref.lat)
	r.set("serve.p99_us", lat.tail)
	r.note("serve.p99_us", fmt.Sprintf("p%g of %d requests at %g/s", lat.tailP, lat.n, w.serveRate))
	r.set("serve.sent", float64(ref.sent))
	r.set("serve.failed", float64(ref.failed))
	r.set("serve.inflight_max", float64(ref.inflightMax))
	r.set("serve.gen_lag_p99_us", lag.tail)
	r.note("serve.gen_lag_p99_us", fmt.Sprintf("p%g of %d sends", lag.tailP, lag.n))

	rows := g.rows
	r.set("deploy.predict.us", timePerCall(func() {
		for _, row := range rows {
			if _, err := d.Predict(row); err != nil {
				panic(err)
			}
		}
	})/float64(len(rows)))
	batch := rows[:64]
	r.set("deploy.predict_batch64.us_per_row", timePerCall(func() {
		if _, err := d.PredictBatch(batch); err != nil {
			panic(err)
		}
	})/float64(len(batch)))
	return nil
}
