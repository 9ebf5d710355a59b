package fl

import (
	"math"
	"math/rand"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// Personalize fine-tunes a copy of the model on one client's local data
// and returns the personalized model plus its test accuracy — the common
// FL personalization step the paper's related work surveys (Collins et
// al., Ditto, ...). Batches of 10 are drawn from the stream at key. The
// server model is not mutated.
func Personalize(m *model.Model, cl *data.Client, steps int, lr float64, key uint64) (*model.Model, float64) {
	s := newLocalSession(m)
	s.train(cl, LocalConfig{Steps: steps, BatchSize: 10, LR: lr}, key, nil)
	acc, _ := s.m.Evaluate(cl.TestX, cl.TestY)
	return s.m, acc
}

// ClipAndNoise applies DP-SGD-style post-processing to a client update:
// the update delta (weights − anchor) is L2-clipped to clipNorm and
// Gaussian noise with the given standard deviation is added. With
// clipNorm <= 0 no clipping occurs; with noiseStd <= 0 no noise is added.
// It returns the effective delta norm before clipping.
func ClipAndNoise(weights, anchor []*tensor.Tensor, clipNorm, noiseStd float64, rng *rand.Rand) float64 {
	// Compute the global delta norm.
	var sq float64
	for i, w := range weights {
		for j := range w.Data {
			d := float64(w.Data[j] - anchor[i].Data[j])
			sq += d * d
		}
	}
	norm := math.Sqrt(sq)
	scale := 1.0
	if clipNorm > 0 && norm > clipNorm {
		scale = clipNorm / norm
	}
	for i, w := range weights {
		// Client uploads are COW snapshots of the trained weights;
		// detach before rewriting them in place.
		w.EnsureOwned()
		for j := range w.Data {
			d := float64(w.Data[j]-anchor[i].Data[j]) * scale
			if noiseStd > 0 {
				d += rng.NormFloat64() * noiseStd
			}
			w.Data[j] = anchor[i].Data[j] + tensor.Float(d)
		}
	}
	return norm
}
