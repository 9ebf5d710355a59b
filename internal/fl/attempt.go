package fl

import (
	"errors"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/chaos"
	"fedtrans/internal/compress"
	"fedtrans/internal/model"
)

// This file is the one model of a client attempt that both round loops
// charge: plan gives an attempt's simulated duration and planned
// outcome, settle walks a client's retry chain through commitAttempt,
// and attemptChain walks the same plan ahead of time to schedule
// asynchronous commits.

// attemptPlan is what the device-time model decides about one attempt
// before it runs.
type attemptPlan struct {
	dur      float64     // simulated seconds the attempt occupies the client
	fault    chaos.Fault // injected chaos fault
	timedOut bool        // the attempt ran past ClientTimeout; dur is the timeout
}

// failed reports whether the attempt is planned to fail.
func (p attemptPlan) failed() bool { return p.fault != chaos.None || p.timedOut }

// plan is the simulated duration and planned outcome of attempt number
// attempt of client on model m, dispatched at server round version. It
// is a pure function of those four values: chaos draws and device-trace
// times are seeded hashes. A crashed attempt takes no time and fails.
// Any other attempt takes the device's training time plus its straggler
// delay, capped at ClientTimeout, and fails on a timeout or on a
// corrupt or non-finite upload (rejected at the accumulator after the
// full duration — the bytes traveled).
//
// The rule both round loops follow:
//   - Sample count and transport errors never change an attempt's
//     planned duration or its planned failure.
//   - A zero-sample attempt that the plan calls successful folds nothing.
//   - A transport error (Trainer error) is the single outcome no schedule
//     can know in advance. It fails the attempt after its planned
//     duration. In asynchronous rounds the inline retry then extends the
//     client's elapsed time past its scheduled arrival; that is the one
//     stated exception to schedule ≡ commit.
//
// Training that genuinely diverges to non-finite weights on a fault-free
// attempt is outside the rule: the accumulator rejects it, and no plan
// can foresee it either.
func (rt *Runtime) plan(version, client, attempt int, m *model.Model) attemptPlan {
	cfg := rt.cfg
	p := attemptPlan{fault: rt.chaos.Fault(version, client, attempt)}
	if p.fault == chaos.Crash {
		return p
	}
	p.dur = rt.trace.TrainingTime(client, m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, m.Bytes()) +
		rt.chaos.Delay(version, client, attempt)
	if cfg.ClientTimeout > 0 && p.dur > cfg.ClientTimeout {
		p.dur, p.timedOut = cfg.ClientTimeout, true
	}
	return p
}

// backoff is the simulated wait before retry attempt k ≥ 1:
// RetryBackoff × 2^(k-1).
func (rt *Runtime) backoff(k int) float64 {
	if rt.cfg.RetryBackoff <= 0 {
		return 0
	}
	return rt.cfg.RetryBackoff * float64(int(1)<<(k-1))
}

// attemptChain is the scheduled duration of a dispatch's retry chain:
// planned durations and backoffs up to the first planned success or
// the end of RetryBudget. It is settle's timeline without transport
// errors, so the coordinator can order asynchronous commits while the
// training is still in flight.
func (rt *Runtime) attemptChain(version, client int, m *model.Model) float64 {
	elapsed := 0.0
	for attempt := 0; attempt <= rt.cfg.RetryBudget; attempt++ {
		if attempt > 0 {
			elapsed += rt.backoff(attempt)
		}
		p := rt.plan(version, client, attempt, m)
		elapsed += p.dur
		if !p.failed() {
			break
		}
	}
	return elapsed
}

// settle runs a trained client's attempt chain to its end: it commits
// the attempt, retries a failed one after its backoff up to
// RetryBudget, releases the upload buffers, and reports the outcome to
// the selector (success) or to Result.Failures. Retries run
// synchronously on the single consumer goroutine with the dispatch
// version's seeds: determinism needs no extra machinery, and a retry
// storm degrades throughput instead of correctness. It returns the
// simulated time the client spent and whether an attempt succeeded.
func (rt *Runtime) settle(version int, u *roundTask, res *Result) (elapsed float64, ok bool) {
	elapsed, ok = rt.commitAttempt(version, 0, u, res)
	for attempt := 1; !ok && attempt <= rt.cfg.RetryBudget; attempt++ {
		res.Retries++
		elapsed += rt.backoff(attempt)
		rt.trainTask(version, attempt, u)
		var t float64
		t, ok = rt.commitAttempt(version, attempt, u, res)
		elapsed += t
	}
	rt.releaseUploads(u)
	if ok {
		u.ok = true
		rt.cfg.Selector.Feedback(u.client, u.loss, elapsed)
	} else {
		res.Failures++
	}
	return elapsed, ok
}

// commitAttempt settles one trained attempt: it returns the planned
// duration and outcome, and decides only what the plan cannot know —
// whether the upload folds into the accumulator, and the training and
// network costs. Nothing folds from a crash (download spent), a
// transport error (download spent, the retry redials), a zero-sample
// attempt (download spent) or a timeout (download and training spent).
// A corrupt or non-finite upload is offered to the accumulator, which
// rejects it (full cost spent — the bytes did travel).
func (rt *Runtime) commitAttempt(version, attempt int, u *roundTask, res *Result) (float64, bool) {
	cfg := rt.cfg
	m := u.m
	p := rt.plan(version, u.client, attempt, m)
	if p.fault == chaos.Crash || u.err != nil || u.samples == 0 {
		// A zero-sample update must not fold: sampleWeight clamps
		// weight-0 updates to 1, so it would count as a contribution.
		res.Costs.NetworkBytes += m.Bytes()
		return p.dur, u.err == nil && !p.failed()
	}
	res.Costs.AddTraining(m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize)
	if p.timedOut {
		res.Costs.NetworkBytes += m.Bytes()
		return p.dur, false
	}
	if cfg.ClipNorm > 0 || cfg.NoiseStd > 0 {
		ClipAndNoise(u.up, m.Params(), cfg.ClipNorm, cfg.NoiseStd, rt.rng)
	}
	var err error
	if cfg.QuantizeUploads {
		var qs []compress.QuantizedTensor
		upBytes := 0
		if u.q != nil {
			// On-device quantization: the codes that traveled are the
			// codes that fold — never dequantize-requantize, which would
			// change bits.
			qs = u.q
			for i := range qs {
				upBytes += qs[i].Bytes()
			}
		} else {
			qs = rt.quantScratch(m)
			for pi, t := range u.up {
				compress.QuantizeInto(&qs[pi], t)
				upBytes += qs[pi].Bytes()
			}
		}
		if p.fault == chaos.CorruptUpload && len(qs) > 0 {
			qs = qs[:len(qs)-1] // truncated in flight
		}
		res.Costs.NetworkBytes += m.Bytes() + int64(upBytes)
		err = rt.agg.AddQuantized(m, qs, u.samples, u.loss, u.stale)
	} else {
		ws := u.up
		if p.fault == chaos.CorruptUpload && len(ws) > 0 {
			ws = ws[:len(ws)-1] // truncated in flight
		}
		res.Costs.AddTransfer(m.Bytes())
		err = rt.agg.Add(m, aggregate.Update{
			ModelID: m.ID, Weights: ws, Samples: u.samples, Loss: u.loss,
			Staleness: u.stale,
		})
	}
	if err != nil {
		if p.fault == chaos.None && !errors.Is(err, aggregate.ErrNonFinite) {
			panic(err) // uploads are shaped by the model itself: a real bug
		}
		return p.dur, false
	}
	return p.dur, true
}
