// Package fl implements the federated-learning runtime: client local
// training, the FedTrans coordinator of Algorithm 1, and the round-level
// accounting (training MACs, network bytes, storage, round completion
// time) that the evaluation reports.
package fl

import (
	"math/rand"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// LocalConfig parameterizes client local training (§5.1: 20 local steps,
// batch size 10, learning rate 0.05).
type LocalConfig struct {
	Steps     int
	BatchSize int
	LR        float64
	// ProxMu enables the FedProx proximal term anchored at the downloaded
	// weights.
	ProxMu float64
}

// DefaultLocalConfig returns the paper's local-training defaults.
func DefaultLocalConfig() LocalConfig {
	return LocalConfig{Steps: 20, BatchSize: 10, LR: 0.05}
}

// LocalResult is what a client returns to the coordinator after local
// training: updated weights, the mean training loss, and the sample count.
// As the appendix notes, the coordinator can derive the round gradient
// from (old weights − new weights), so no separate gradient upload is
// simulated.
type LocalResult struct {
	Weights []*tensor.Tensor
	Loss    float64
	Samples int
}

// TrainLocal trains a copy-on-write clone of m on the client's data,
// drawing batches from the stream at key (an rng.Train key), and
// returns the clone's trained weights. m is not mutated. It runs the
// same loop as the round loop's pooled sessions.
func TrainLocal(m *model.Model, cl *data.Client, cfg LocalConfig, key uint64) LocalResult {
	s := newLocalSession(m)
	defer s.m.ReleaseWorkspaces()
	loss, n := s.train(cl, cfg, key, nil)
	return LocalResult{Weights: s.m.Params(), Loss: loss, Samples: n}
}

// EvaluateOn returns the model's accuracy on the client's test split.
func EvaluateOn(m *model.Model, cl *data.Client) float64 {
	acc, _ := m.Evaluate(cl.TestX, cl.TestY)
	return acc
}

// SelectClients samples n distinct client indices from [0, total).
func SelectClients(total, n int, rng *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(total)
	return perm[:n]
}
