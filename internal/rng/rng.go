// Package rng is the reproduction's one random-number scheme. Every
// stream is named by a key, a splitmix64 hash of (seed, stream, round,
// client, attempt), so a client's data, device, training and fault
// draws are pure functions of their coordinates, independent of
// scheduling and of how many other clients drew. A key seeds a PCG
// Source (math/rand/v2) that rekeys in O(1) without allocating and
// marshals its 16-byte state, which is how checkpoints resume the run
// stream. Consumers keep taking *math/rand.Rand.
package rng

import (
	"errors"
	"math/rand"
	randv2 "math/rand/v2"
)

// Stream names an independent family of draws under one seed.
type Stream uint64

const (
	// ChaosFault, ChaosDelay and ChaosWire are internal/chaos's
	// per-attempt fault, straggler and per-upload transport draws.
	ChaosFault Stream = iota
	ChaosDelay
	ChaosWire
	// Run is a runtime's sequential stream: model initialization,
	// selection, assignment sampling and transformation.
	Run
	// Train is one client's local batch sampling for one attempt.
	Train
	// Data is one generative client's shard; Protos is the dataset's
	// shared prototype bank.
	Data
	Protos
	// Device is one simulated device.
	Device
	// EvalPanel draws the sampled evaluation panel; Personalize is one
	// client's post-training fine-tuning.
	EvalPanel
	Personalize
	// Init initializes weights that depend on no run seed (identity
	// cells); Shuffle orders pooled data.
	Init
	Shuffle
	// Signature projects clustering signatures; Probe is one client's
	// probe training for its signature.
	Signature
	Probe
)

// Key returns the key of stream's draws at (round, client, attempt)
// under seed. Coordinates a stream does not use are passed as 0.
func Key(seed int64, stream Stream, round, client, attempt int) uint64 {
	x := splitmix(uint64(seed) + uint64(round)*0x9e3779b97f4a7c15)
	x = splitmix(x + uint64(client)*0xbf58476d1ce4e5b9)
	x = splitmix(x + uint64(attempt)*0x94d049bb133111eb)
	return splitmix(x + uint64(stream))
}

// splitmix is the splitmix64 finalizer (Steele et al.).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a keyed PCG generator implementing math/rand.Source64. The
// zero value is valid.
type Source struct{ pcg randv2.PCG }

// Reseed restarts the source at key's stream.
func (s *Source) Reseed(key uint64) { s.pcg.Seed(key, splitmix(key)) }

// Seed (at key uint64(seed)), Uint64 and Int63 implement Source64.
func (s *Source) Seed(seed int64) { s.Reseed(uint64(seed)) }
func (s *Source) Uint64() uint64  { return s.pcg.Uint64() }
func (s *Source) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// MarshalBinary returns the 16-byte generator state.
func (s *Source) MarshalBinary() ([]byte, error) {
	b, err := s.pcg.MarshalBinary() // "pcg:" + state
	return b[len(b)-16:], err
}

// UnmarshalBinary installs a state from MarshalBinary. Every 16-byte
// value is a valid state.
func (s *Source) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return errors.New("rng: state is not 16 bytes")
	}
	return s.pcg.UnmarshalBinary(append([]byte("pcg:"), b...))
}

// New returns a generator over a fresh Source at key.
func New(key uint64) *rand.Rand { return NewRand(key).Rand }

// Rand is a *rand.Rand bound to its own Source, so hot paths can rekey
// it per client without allocating.
type Rand struct {
	*rand.Rand
	src Source
}

// NewRand returns a rekeyable generator at key.
func NewRand(key uint64) *Rand {
	r := &Rand{}
	r.Rand = rand.New(&r.src)
	r.Rekey(key)
	return r
}

// Rekey restarts r at key's stream.
func (r *Rand) Rekey(key uint64) { r.src.Reseed(key) }
