package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

func randTensor(seed int64, n int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n)
	t.RandNormal(rng, 1)
	return t
}

func TestQuantizeRoundTripWithinStep(t *testing.T) {
	f := func(seed int64) bool {
		tt := randTensor(seed, 64)
		q := Quantize(tt)
		back := q.Dequantize()
		bound := MaxError(tt) + 1e-12
		for i := range tt.Data {
			if math.Abs(float64(tt.Data[i]-back.Data[i])) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeConstantTensor(t *testing.T) {
	tt := tensor.New(10)
	tt.Fill(3.5)
	q := Quantize(tt)
	back := q.Dequantize()
	for _, v := range back.Data {
		if v != 3.5 {
			t.Fatalf("constant tensor reconstructed as %v", v)
		}
	}
}

func TestQuantizePreservesExtremes(t *testing.T) {
	tt := tensor.FromSlice([]tensor.Float{-2, 0, 5}, 3)
	q := Quantize(tt)
	back := q.Dequantize()
	if back.Data[0] != -2 || back.Data[2] != 5 {
		t.Errorf("extremes not exact: %v", back.Data)
	}
}

func TestQuantizeIntoMatchesQuantizeAndReuses(t *testing.T) {
	var q QuantizedTensor
	for _, n := range []int{64, 16, 64} { // grow, shrink, regrow within cap
		tt := randTensor(int64(n), n)
		prevCap := cap(q.Codes)
		QuantizeInto(&q, tt)
		want := Quantize(tt)
		if q.Min != want.Min || q.Max != want.Max || len(q.Codes) != len(want.Codes) {
			t.Fatalf("n=%d: QuantizeInto header differs from Quantize", n)
		}
		for i := range q.Codes {
			if q.Codes[i] != want.Codes[i] {
				t.Fatalf("n=%d: code %d differs", n, i)
			}
		}
		if prevCap >= n && cap(q.Codes) != prevCap {
			t.Errorf("n=%d: sufficient capacity %d was not reused", n, prevCap)
		}
	}
	// Constant tensor on a reused record: stale codes must be cleared.
	for i := range q.Codes {
		q.Codes[i] = 200
	}
	flat := tensor.New(16)
	flat.Fill(3)
	QuantizeInto(&q, flat)
	for i, c := range q.Codes {
		if c != 0 {
			t.Fatalf("constant tensor code[%d] = %d, want 0", i, c)
		}
	}
}

func TestQuantizeBytesSaving(t *testing.T) {
	tt := randTensor(1, 1000)
	q := Quantize(tt)
	dense := 4 * tt.Len() // float32 wire
	if q.Bytes() >= dense {
		t.Errorf("quantized %d bytes not smaller than dense %d", q.Bytes(), dense)
	}
	// Roughly 4x saving minus framing.
	if float64(dense)/float64(q.Bytes()) < 3 {
		t.Errorf("compression ratio %.2f too low", float64(dense)/float64(q.Bytes()))
	}
}

func TestQuantizeMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tt := tensor.New(3, 4)
	tt.RandNormal(rng, 2)
	q := Quantize(tt)
	blob := q.Marshal()
	if len(blob) != q.Bytes() {
		t.Errorf("marshal size %d != Bytes() %d", len(blob), q.Bytes())
	}
	back, err := UnmarshalQuantized(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Min != q.Min || back.Max != q.Max || len(back.Codes) != len(q.Codes) {
		t.Fatal("header lost in round trip")
	}
	for i := range q.Codes {
		if back.Codes[i] != q.Codes[i] {
			t.Fatal("codes corrupted")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalQuantized(nil); err == nil {
		t.Error("nil blob must fail")
	}
	if _, err := UnmarshalQuantized([]byte{0, 0, 0, 9}); err == nil {
		t.Error("rank 9 must fail")
	}
	tt := randTensor(3, 8)
	blob := Quantize(tt).Marshal()
	if _, err := UnmarshalQuantized(blob[:len(blob)-1]); err == nil {
		t.Error("truncated codes must fail")
	}
}

func TestQuantizedTrainingStillConverges(t *testing.T) {
	// End-to-end sanity: simulate quantized uploads around local training
	// and check the model still learns.
	model.ResetIDs()
	rng := rand.New(rand.NewSource(4))
	m := model.Spec{Family: "dense", Input: []int{8}, Hidden: []int{16}, Classes: 4}.Build(rng)
	x := tensor.New(32, 8)
	x.RandNormal(rng, 1)
	y := make([]int, 32)
	for i := range y {
		y[i] = i % 4
	}
	opt := nn.NewSGD(0.1)
	first, last := 0.0, 0.0
	for step := 0; step < 50; step++ {
		loss := m.TrainStep(x, y, opt)
		if step == 0 {
			first = loss
		}
		last = loss
		// Round-trip the weights through quantization every 10 steps,
		// simulating a compressed upload+download.
		if step%10 == 9 {
			qs, _ := QuantizeAll(m.Params())
			m.SetWeights(DequantizeAll(qs))
		}
	}
	if last >= first*0.8 {
		t.Errorf("quantized training stalled: %.4f -> %.4f", first, last)
	}
}

// TestUnmarshalQuantizedRejectsBadDims is the regression test for the
// missing dim bounds: zero dims and dims past the codec-style maxDim
// must be rejected instead of driving bogus reconstructions.
func TestUnmarshalQuantizedRejectsBadDims(t *testing.T) {
	mk := func(dims ...uint32) []byte {
		out := []byte{0, 0, 0, byte(len(dims))}
		for _, d := range dims {
			out = append(out, byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
		}
		out = append(out, make([]byte, 16)...) // min/max
		return out
	}
	if _, err := UnmarshalQuantized(append(mk(0), 0)); err == nil {
		t.Error("zero dim must fail")
	}
	if _, err := UnmarshalQuantized(mk(1 << 25)); err == nil {
		t.Error("dim beyond maxDim must fail")
	}
	// Two large-but-individually-legal dims whose product overflows the
	// element bound.
	if _, err := UnmarshalQuantized(mk(1<<23, 1<<23)); err == nil {
		t.Error("element-count overflow must fail")
	}
	// A legal small blob still round-trips.
	q := Quantize(randTensor(9, 6))
	if _, err := UnmarshalQuantized(q.Marshal()); err != nil {
		t.Errorf("legal blob rejected: %v", err)
	}
}
