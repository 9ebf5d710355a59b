package baselines

import (
	"math/rand"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/metrics"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/rng"
	"fedtrans/internal/tensor"
)

// SplitMix splits the (largest) model's width into numBase narrow "base"
// models. Every client trains as many base models as its capacity budget
// allows each round (rotating through the pool for balance), and inference
// ensembles the logits of the client's affordable bases — the on-demand
// width customization of Hong et al. (ICLR 2022).
type SplitMix struct {
	cfg   Config
	ds    *data.Dataset
	trace *device.Trace
	bases []*model.Model
	rng   *rand.Rand
	next  int // rotation cursor for balanced base training
}

// NewSplitMix builds numBase width-1/numBase base models from the largest
// spec.
func NewSplitMix(cfg Config, ds *data.Dataset, trace *device.Trace, largest model.Spec, numBase int) *SplitMix {
	if numBase < 2 {
		numBase = 4
	}
	rng := rng.New(rng.Key(cfg.Seed, rng.Run, 0, 0, 0))
	s := &SplitMix{cfg: cfg, ds: ds, trace: trace, rng: rng}
	atom := largest.Scaled(1 / float64(numBase))
	ids := model.NewIDGen()
	for i := 0; i < numBase; i++ {
		s.bases = append(s.bases, atom.BuildScoped(rng, ids))
	}
	return s
}

// Bases exposes the base-model pool.
func (s *SplitMix) Bases() []*model.Model { return s.bases }

// budgetFor returns how many base models the capacity affords (≥ 1).
func (s *SplitMix) budgetFor(capacity float64) int {
	per := s.bases[0].MACsPerSample()
	n := int(capacity / per)
	if n < 1 {
		n = 1
	}
	if n > len(s.bases) {
		n = len(s.bases)
	}
	return n
}

// Run executes SplitMix training.
func (s *SplitMix) Run() fl.Result {
	cfg := s.cfg
	res := fl.Result{CostCurve: metrics.Series{Name: "splitmix"}}
	var storage int64
	for _, b := range s.bases {
		storage += b.Bytes()
	}
	res.Costs.ObserveStorage(storage)
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 5
	}
	for round := 0; round < cfg.Rounds; round++ {
		selected := fl.SelectClients(len(s.ds.Clients), cfg.ClientsPerRound, s.rng)
		updates := make([][]aggregate.Update, len(s.bases))
		roundTime := 0.0
		for _, c := range selected {
			budget := s.budgetFor(s.trace.Devices[c].CapacityMACs)
			clientTime := 0.0
			for k := 0; k < budget; k++ {
				bi := s.next % len(s.bases)
				s.next++
				b := s.bases[bi]
				lr := fl.TrainLocal(b, &s.ds.Clients[c], cfg.Local, rng.Key(cfg.Seed, rng.Train, round, c, k))
				updates[bi] = append(updates[bi], aggregate.Update{
					ModelID: b.ID, Weights: lr.Weights, Samples: lr.Samples, Loss: lr.Loss,
				})
				res.Costs.AddTraining(b.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize)
				res.Costs.AddTransfer(b.Bytes())
				clientTime += s.trace.TrainingTime(c, b.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, b.Bytes())
			}
			if clientTime > roundTime {
				roundTime = clientTime
			}
		}
		res.RoundTimes = append(res.RoundTimes, roundTime)
		for bi, us := range updates {
			aggregate.FedAvg(s.bases[bi], us)
		}
		res.RoundsRun = round + 1
		if (round+1)%evalEvery == 0 || round == cfg.Rounds-1 {
			accs := s.evaluate()
			res.CostCurve.Append(res.Costs.TrainMACs, metrics.Mean(accs))
		}
	}
	accs := s.evaluate()
	res.ClientAcc = accs
	res.MeanAcc = metrics.Mean(accs)
	res.Box = metrics.Box(accs)
	for _, b := range s.bases {
		res.SuiteArch = append(res.SuiteArch, b.ArchString())
		res.SuiteMACs = append(res.SuiteMACs, b.MACsPerSample())
	}
	return res
}

// evaluate ensembles each client's affordable bases by averaging softmax
// probabilities.
func (s *SplitMix) evaluate() []float64 {
	accs := make([]float64, len(s.ds.Clients))
	for c := range s.ds.Clients {
		cl := &s.ds.Clients[c]
		budget := s.budgetFor(s.trace.Devices[c].CapacityMACs)
		var sum *tensor.Tensor
		for k := 0; k < budget; k++ {
			probs := tensor.Softmax(s.bases[k].Forward(cl.TestX))
			if sum == nil {
				sum = probs
			} else {
				sum.AddScaled(probs, 1)
			}
		}
		accs[c] = nn.Accuracy(sum, cl.TestY)
	}
	return accs
}
