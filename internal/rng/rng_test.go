package rng

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRekeyAllocatesNothing: the per-client hot paths (session, data
// cursor, device pool) rekey once per client, so a rekey must not
// allocate.
func TestRekeyAllocatesNothing(t *testing.T) {
	var s Source
	r := NewRand(0)
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k++
		s.Reseed(Key(1, Train, 3, k, 0))
		r.Rekey(Key(1, Data, 0, k, 0))
		_ = s.Uint64() + uint64(r.Intn(10))
	})
	if allocs != 0 {
		t.Fatalf("rekey + draw allocates %.1f times, want 0", allocs)
	}
}

// TestMarshalContinuesStream: a state marshalled mid-stream and
// installed in a fresh source continues the identical sequence, through
// math/rand's derived draws as well as raw outputs.
func TestMarshalContinuesStream(t *testing.T) {
	src := &Source{}
	src.Reseed(Key(7, Run, 0, 0, 0))
	a := rand.New(src)
	for i := 0; i < 137; i++ {
		a.NormFloat64()
		a.Intn(1000)
	}
	state, err := src.MarshalBinary()
	if err != nil || len(state) != 16 {
		t.Fatalf("MarshalBinary = %d bytes, %v; want 16, nil", len(state), err)
	}
	fresh := &Source{}
	if err := fresh.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	b := rand.New(fresh)
	for i := 0; i < 1000; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d after restore: %v != %v", i, x, y)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("raw draw %d after restore: %d != %d", i, x, y)
		}
	}
	if err := fresh.UnmarshalBinary(state[:15]); err == nil {
		t.Error("a 15-byte state was accepted")
	}
}

// TestKeysDistinctAcrossStreams: for a 10^6-client population under
// seed 1, no client's data, device and training keys coincide with any
// other key among them, so no two of those streams are the same
// sequence. (Linear seed formulas into math/rand, which reduces seeds
// modulo 2^31-1, let a device stream equal some client's data stream.)
func TestKeysDistinctAcrossStreams(t *testing.T) {
	const clients = 1_000_000
	keys := make([]uint64, 0, 3*clients)
	for k := 0; k < clients; k++ {
		keys = append(keys,
			Key(1, Data, 0, k, 0),
			Key(1, Device, 0, k, 0),
			Key(1, Train, 0, k, 0))
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("key %#x repeats across the data/device/train streams", keys[i])
		}
	}
}

// TestSameKeySameStream: equal keys give equal sequences whichever
// constructor built the generator.
func TestSameKeySameStream(t *testing.T) {
	key := Key(3, Device, 0, 42, 0)
	a, b := New(key), NewRand(99)
	b.Rekey(key)
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y || x < 0 {
			t.Fatalf("draw %d: %d vs %d", i, x, y)
		}
	}
}
