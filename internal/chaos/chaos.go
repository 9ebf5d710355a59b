// Package chaos provides seeded, deterministic fault injection for the
// FL runtime: client crashes mid-train, corrupted (truncated) uploads,
// non-finite gradient payloads, and straggler delays.
//
// Every fault decision is a pure function of (seed, round, client,
// attempt) — an internal/rng key, not a shared RNG stream — so injection
// is independent of goroutine scheduling and of how many other clients
// draw faults. Two runs with the same chaos seed inject exactly the
// same faults, which is what lets the chaos test suite assert
// byte-identical results and lets checkpoint/resume replay a failure
// profile without storing any injector state.
package chaos

import "fedtrans/internal/rng"

// Fault is the failure mode injected into one training attempt.
type Fault uint8

const (
	// None: the attempt proceeds normally.
	None Fault = iota
	// Crash: the client dies mid-train and never produces an upload.
	Crash
	// CorruptUpload: the upload arrives malformed (a truncated tensor
	// set) and is rejected at the accumulator boundary.
	CorruptUpload
	// NonFinite: the upload carries NaN gradient payload and is rejected
	// by the accumulator's finite-value check.
	NonFinite
)

// String names the fault for logs and test failures.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case Crash:
		return "crash"
	case CorruptUpload:
		return "corrupt"
	case NonFinite:
		return "nonfinite"
	}
	return "unknown"
}

// Config is a failure profile. Rates are per-attempt probabilities in
// [0, 1]; their sum must not exceed 1. The zero value disables
// injection.
type Config struct {
	// Seed drives the fault hash. Independent of the run seed so the
	// same training run can be replayed under different failure
	// profiles.
	Seed int64
	// CrashRate is the probability a training attempt crashes and
	// produces no upload.
	CrashRate float64
	// CorruptRate is the probability an upload arrives truncated.
	CorruptRate float64
	// NonFiniteRate is the probability an upload carries NaN payload.
	NonFiniteRate float64
	// StragglerRate is the probability an attempt is delayed by
	// StragglerDelay simulated seconds.
	StragglerRate float64
	// StragglerDelay is the simulated delay (seconds) added to a
	// straggling attempt's completion time.
	StragglerDelay float64
}

// Enabled reports whether the profile injects anything.
func (c Config) Enabled() bool {
	return c.CrashRate > 0 || c.CorruptRate > 0 || c.NonFiniteRate > 0 || c.StragglerRate > 0
}

// Injector draws faults for training attempts. A nil *Injector is valid
// and injects nothing, so callers never branch on whether chaos is
// configured.
type Injector struct {
	cfg Config
}

// New returns an injector for the profile, or nil when the profile
// injects nothing.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg}
}

// Fault returns the failure mode of one training attempt. Attempt 0 is
// the first try; retries pass increasing attempt numbers and draw
// independently, so a transient fault can clear on retry.
func (in *Injector) Fault(round, client, attempt int) Fault {
	if in == nil {
		return None
	}
	u := unit(in.cfg.Seed, round, client, attempt, rng.ChaosFault)
	p := in.cfg.CrashRate
	if u < p {
		return Crash
	}
	p += in.cfg.CorruptRate
	if u < p {
		return CorruptUpload
	}
	p += in.cfg.NonFiniteRate
	if u < p {
		return NonFinite
	}
	return None
}

// Delay returns the straggler delay (simulated seconds) of one training
// attempt; 0 for non-stragglers. Drawn independently of Fault so a
// straggler can also crash.
func (in *Injector) Delay(round, client, attempt int) float64 {
	if in == nil || in.cfg.StragglerRate <= 0 {
		return 0
	}
	if unit(in.cfg.Seed, round, client, attempt, rng.ChaosDelay) < in.cfg.StragglerRate {
		return in.cfg.StragglerDelay
	}
	return 0
}

// unit hashes the draw coordinates to a uniform float64 in [0, 1).
func unit(seed int64, round, client, attempt int, stream rng.Stream) float64 {
	// 53 high bits → [0, 1), the same mantissa width as rand.Float64.
	return float64(rng.Key(seed, stream, round, client, attempt)>>11) / (1 << 53)
}
