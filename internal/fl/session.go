package fl

import (
	"sync"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/rng"
	"fedtrans/internal/tensor"
)

// localSession is a reusable client-training harness bound to one suite
// model: a fully materialized training clone (owned weight buffers, warm
// gradient storage and workspaces after the first client), a rekeyable
// RNG, and recycled batch scratch. The streaming round loop draws
// sessions from a per-model pool so training a thousand clients per
// round costs a thousand weight memcpys, not a thousand model-sized
// allocations — the serial-equals-parallel guarantee is preserved
// because every piece of session state is either overwritten per client
// (weights, batch, RNG) or cleared per step (gradients).
type localSession struct {
	m   *model.Model
	opt *nn.SGD
	rng *rng.Rand
	idx []int
	by  []int
	bx  *tensor.Tensor
	// cur is the session's client-synthesis cursor: for generative
	// datasets, Fetch reuses its RNG and shard buffers so pulling a
	// client's shard on demand is allocation-free in steady state.
	cur data.ClientCursor
}

func newLocalSession(src *model.Model) *localSession {
	return &localSession{
		m:   src.Clone(),
		opt: nn.NewSGD(0),
		rng: rng.NewRand(0),
		bx:  &tensor.Tensor{},
	}
}

// run downloads src's current weights into the session clone and
// trains it (see train). src is only read.
func (s *localSession) run(src *model.Model, cl *data.Client, cfg LocalConfig, key uint64, upload []*tensor.Tensor) (loss float64, samples int) {
	s.m.SetWeights(src.Params())
	return s.train(cl, cfg, key, upload)
}

// train rekeys the session RNG at key (the attempt's rng.Train key),
// trains the session model locally, and copies the trained weights into
// upload (if non-nil). It returns the mean training loss and the
// client's sample count.
func (s *localSession) train(cl *data.Client, cfg LocalConfig, key uint64, upload []*tensor.Tensor) (loss float64, samples int) {
	s.rng.Rekey(key)
	s.opt.LR = cfg.LR
	s.opt.ProxMu = cfg.ProxMu
	if cfg.ProxMu > 0 {
		// FedProx anchors at the just-downloaded weights; SetProxAnchor
		// copies, so later SGD writes do not drift the anchor.
		for _, p := range s.m.Params() {
			s.opt.SetProxAnchor(p, p.Data)
		}
	}
	n := len(cl.TrainY)
	if n == 0 {
		// A zero-sample shard has nothing to train on: hand back the
		// downloaded weights untouched with Samples 0 — zero FedAvg
		// weight, so the coordinator never folds the update. Without
		// this guard the batch sampler below panics on Intn(0).
		s.upload(upload)
		return 0, 0
	}
	steps := cfg.Steps
	if steps < 1 {
		steps = 1
	}
	bs := cfg.BatchSize
	if bs > n {
		bs = n
	}
	if cap(s.idx) >= bs {
		s.idx = s.idx[:bs]
	} else {
		s.idx = make([]int, bs)
	}
	if cap(s.by) >= bs {
		s.by = s.by[:bs]
	} else {
		s.by = make([]int, bs)
	}
	lossSum := 0.0
	for st := 0; st < steps; st++ {
		for i := range s.idx {
			s.idx[i] = s.rng.Intn(n)
		}
		data.BatchInto(s.bx, s.by, cl.TrainX, cl.TrainY, s.idx)
		lossSum += s.m.TrainStep(s.bx, s.by, s.opt)
	}
	s.upload(upload)
	return lossSum / float64(steps), n
}

func (s *localSession) upload(dst []*tensor.Tensor) {
	for i, u := range dst {
		copy(u.Data, s.m.Params()[i].Data)
	}
}

// freeList recycles per-model objects keyed by model ID: training
// sessions, dense and quantized upload sets, and dispatch-snapshot
// husks. A miss returns ok false and the caller builds a fresh object,
// so each pool's growth is bounded by how many of its objects are ever
// out at once. Safe for concurrent use by stream workers.
type freeList[T any] struct {
	mu   sync.Mutex
	free map[int][]T
}

func (l *freeList[T]) get(modelID int) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	list := l.free[modelID]
	if n := len(list); n > 0 {
		x, ok = list[n-1], true
		l.free[modelID] = list[:n-1]
	}
	return x, ok
}

func (l *freeList[T]) put(modelID int, x T) {
	l.mu.Lock()
	if l.free == nil {
		l.free = make(map[int][]T)
	}
	l.free[modelID] = append(l.free[modelID], x)
	l.mu.Unlock()
}
