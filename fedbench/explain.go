package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"fedtrans"
	"fedtrans/internal/aggregate"
	"fedtrans/internal/codec"
	"fedtrans/internal/data"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/netcoord"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
	"fedtrans/internal/transform"
)

// tracedRun is the outcome of one traced training run.
type tracedRun struct {
	rp         *replica
	res        fl.Result
	wall       time.Duration
	rec        *recorder
	wireErrors int
	ckptCalls  int64
	ckptBytes  int64
}

// runTraced trains o on a replica of the session's runtime with the
// span-recording Trainer installed (the Hub decorator when o has a
// ServeAddr).
func runTraced(o fedtrans.Options) (*tracedRun, error) {
	tr := &tracedRun{rec: &recorder{}}
	var hub *netcoord.Hub
	// The runtime calls the sink one delivery at a time and waits for
	// the last before Run returns, so these need no synchronization.
	var sinkErr error
	sink := func(_ int, blob []byte) {
		tr.ckptCalls++
		tr.ckptBytes += int64(len(blob))
		if err := writeCheckpoint(o.CheckpointPath, blob); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	trainer := func(rp *replica) (fl.Trainer, error) {
		if o.ServeAddr == "" {
			return &sessionTracer{ds: rp.ds, rec: tr.rec, free: map[int][]*fl.ClientTrainer{}}, nil
		}
		h, err := hubFor(o, rp.dcfg, rp.cfg.Local)
		if err != nil {
			return nil, err
		}
		hub = h
		return &hubTracer{hub: h, rec: tr.rec}, nil
	}
	rp, err := newReplica(o, trainer, sink)
	if err != nil {
		return nil, err
	}
	tr.rp = rp
	var agentDone chan error
	if hub != nil {
		agentDone = make(chan error, 1)
		go func() { agentDone <- fedtrans.RunAgent(hub.Addr(), agents) }()
	}
	tr.rec.t0 = time.Now()
	tr.res = rp.rt.Run()
	tr.wall = time.Since(tr.rec.t0)
	if hub != nil {
		tr.wireErrors = len(hub.WireErrors())
		hub.Close()
		if err := <-agentDone; err != nil {
			return nil, fmt.Errorf("agents: %w", err)
		}
	}
	if err := rp.rt.CheckpointErr(); err != nil {
		return nil, err
	}
	if sinkErr != nil {
		return nil, sinkErr
	}
	return tr, nil
}

// traceTraining runs the untraced and the traced training of a workload,
// checks that they agree, and reports every training layer's metrics.
func traceTraining(r *report, w workload, o fedtrans.Options, outDir string, seed int64) (*fedtrans.Session, error) {
	plain, err := trainOnce(o)
	if err != nil {
		return nil, err
	}
	checkSummary(r, w, plain.sum)
	countAttempts(r, o, plain.sum)

	tr, err := runTraced(o)
	if err != nil {
		return nil, err
	}
	res, sum := tr.res, plain.sum
	r.check(res.MeanAcc == sum.MeanAccuracy && res.Costs.TrainMACs == sum.TrainMACs &&
		res.Costs.NetworkBytes == sum.NetworkBytes && res.RoundsRun == sum.Rounds,
		"%s: traced run differs from the untraced one (accuracy %v vs %v, MACs %v vs %v, bytes %d vs %d, rounds %d vs %d)",
		w.name, res.MeanAcc, sum.MeanAccuracy, res.Costs.TrainMACs, sum.TrainMACs,
		res.Costs.NetworkBytes, sum.NetworkBytes, res.RoundsRun, sum.Rounds)
	r.check(tr.wireErrors == 0, "%s: %d wire errors on a fault-free run", w.name, tr.wireErrors)
	r.set("trace.overhead_pct", (tr.wall.Seconds()/plain.run.Seconds()-1)*100)
	r.note("trace.overhead_pct", fmt.Sprintf("traced %.3fs vs untraced %.3fs", tr.wall.Seconds(), plain.run.Seconds()))
	if err := tr.rec.dump(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)), tr.wall); err != nil {
		return nil, err
	}
	suite, err := exportSuite(plain.sess, tr.rp.rt.Suite())
	if err != nil {
		return nil, err
	}
	explain(r, w, o, tr, suite)
	return plain.sess, nil
}

// suiteModel is one model of the trained suite as exported after the run,
// with the live model's identity.
type suiteModel struct {
	m    *model.Model
	id   int
	born int
}

// exportSuite deserializes every model the session exports, pairing each
// with the traced runtime's model of the same position.
func exportSuite(s *fedtrans.Session, live []*model.Model) ([]suiteModel, error) {
	out := make([]suiteModel, len(live))
	for i, lm := range live {
		blob, err := s.ExportModel(i)
		if err != nil {
			return nil, err
		}
		m, err := model.UnmarshalModel(blob)
		if err != nil {
			return nil, err
		}
		out[i] = suiteModel{m: m, id: lm.ID, born: lm.BornRound}
	}
	return out, nil
}

// explain turns the spans into per-layer metrics and decomposes the run's
// wall time: the spans cover the client attempts, and each coordinator
// layer the program calls internally is charged its replayed per-call
// time (its exported entry point timed at the workload's shapes on the
// exported suite) times the call count the run implies. What neither
// accounts for is fl.run.unexplained_s.
func explain(r *report, w workload, o fedtrans.Options, tr *tracedRun, suite []suiteModel) {
	rp := tr.rp
	spans := tr.rec.spans
	callsByModel := map[int]int{}
	// foldsByModel counts the attempts that trained on data: each ran
	// LocalConfig.Steps train steps and was folded into the aggregator.
	foldsByModel := map[int]int{}
	finalizes := map[[2]int]bool{}
	var durs []time.Duration
	var busy time.Duration
	var iv [][2]time.Duration
	var clients []int
	for _, s := range spans {
		d := s.end - s.start
		durs = append(durs, d)
		busy += d
		iv = append(iv, [2]time.Duration{s.start, s.end})
		callsByModel[s.model]++
		if s.samples > 0 {
			foldsByModel[s.model]++
			finalizes[[2]int{s.round, s.model}] = true
		}
		if len(clients) < 256 {
			clients = append(clients, s.client)
		}
	}
	attempts := len(spans)
	lat := summarizeMicros(durs)
	layer := "fl.session"
	other := "netcoord.train"
	if o.ServeAddr != "" {
		layer, other = other, layer
	}
	r.set(layer+".calls", float64(attempts))
	r.set(layer+".busy_s", busy.Seconds())
	r.set(layer+".p50_us", lat.p50)
	r.set(layer+".p99_us", lat.tail)
	r.note(layer+".p99_us", fmt.Sprintf("p%g of %d spans", lat.tailP, lat.n))
	for _, k := range []string{".calls", ".busy_s", ".p50_us", ".p99_us"} {
		r.set(other+k, 0)
	}
	r.set("netcoord.wire_errors", float64(tr.wireErrors))

	weighted := func(perModel func(i int) float64, weight map[int]int) (float64, int) {
		total, n := 0.0, 0
		for i, sm := range suite {
			if c := weight[sm.id]; c > 0 {
				total += perModel(i) * float64(c)
				n += c
			}
		}
		if n == 0 {
			return 0, 0
		}
		return total / float64(n), n
	}

	// Compute: one TrainStep per local step of every attempt that had data.
	stepUS, folds := weighted(func(i int) float64 { return replayTrainStep(rp, suite[i].m, clients) }, foldsByModel)
	r.set("model.train_step.calls", float64(folds*max(1, rp.cfg.Local.Steps)))
	r.set("model.train_step.us", stepUS)

	// Data and device: one Fetch per attempt; Trace.At once when the
	// client is assigned, once when its attempt is costed and once when
	// its utility is updated, plus once per evaluated client.
	fetchUS := timePerCall(func() {
		var cur data.ClientCursor
		for _, c := range clients {
			rp.ds.Fetch(&cur, c)
		}
	}) / float64(max(1, len(clients)))
	atUS := timePerCall(func() {
		for _, c := range clients {
			rp.trace.At(c)
		}
	}) / float64(max(1, len(clients)))
	evalPasses, evalVisits := evalCounts(rp, tr.res.RoundsRun)
	r.set("data.fetch.calls", float64(attempts))
	r.set("data.fetch.us", fetchUS)
	r.set("device.at.calls", float64(3*attempts+evalVisits))
	r.set("device.at.us", atUS)
	r.note("device.at.calls", "inferred: 3 per attempt + 1 per evaluated client")

	// Aggregation.
	addUS, adds := weighted(func(i int) float64 { return replayAdd(rp, suite[i].m) }, foldsByModel)
	finByModel := map[int]int{}
	for k := range finalizes {
		finByModel[k[1]]++
	}
	finUS, fins := weighted(func(i int) float64 { return replayFinalize(rp, suite[i].m) }, finByModel)
	softUS, softCalls := replaySoft(rp, suite, tr.res.RoundsRun)
	r.set("aggregate.add.calls", float64(adds))
	r.set("aggregate.add.us", addUS)
	r.set("aggregate.finalize.calls", float64(fins))
	r.set("aggregate.finalize.us", finUS)
	r.set("aggregate.soft.calls", float64(softCalls))
	r.set("aggregate.soft.us", softUS)

	// Transformation: one Apply per model the suite grew by.
	trUS := replayTransform(rp, suite)
	r.set("transform.apply.calls", float64(len(suite)-1))
	r.set("transform.apply.us", trUS)

	// Evaluation passes (periodic and final).
	evalUS := timePerCall(func() { rp.rt.EvaluateAll() })
	r.set("fl.eval.calls", float64(evalPasses))
	r.set("fl.eval.us", evalUS)

	// Wire codec: weights down and trained weights up per networked
	// attempt; sizes are computed from the tensor shapes.
	encUS, _ := weighted(func(i int) float64 { return timePerCall(func() { codec.Encode(suite[i].m.Params()) }) }, callsByModel)
	decUS, _ := weighted(func(i int) float64 { return replayDecode(suite[i].m) }, callsByModel)
	var wireBytes float64
	if o.ServeAddr != "" {
		for _, sm := range suite {
			wireBytes += 2 * float64(callsByModel[sm.id]) * float64(codec.EncodedSize(sm.m.Params()))
		}
	}
	r.set("codec.encode_us", encUS)
	r.set("codec.decode_us", decUS)
	r.set("codec.bytes", wireBytes)
	r.note("codec.bytes", "computed from tensor sizes: weights down and up per networked attempt")

	// Checkpoints.
	ckUS := 0.0
	if tr.ckptCalls > 0 {
		ckUS = timePerCall(func() {
			if _, err := rp.rt.Checkpoint(); err != nil {
				r.check(false, "%s: checkpoint replay: %v", w.name, err)
			}
		})
	}
	r.set("fl.checkpoint.calls", float64(tr.ckptCalls))
	r.set("fl.checkpoint.bytes", float64(tr.ckptBytes))
	r.set("fl.checkpoint.encode_us", ckUS)

	covered := coverage(iv).Seconds()
	charged := (addUS*float64(adds) + finUS*float64(fins) + softUS*float64(softCalls) +
		trUS*float64(len(suite)-1) + evalUS*float64(evalPasses) + atUS*float64(3*attempts)) / 1e6
	r.set("fl.run.wall_s", tr.wall.Seconds())
	r.set("fl.run.unexplained_s", tr.wall.Seconds()-covered-charged)
	r.note("fl.run.unexplained_s", fmt.Sprintf("wall %.3fs - spans %.3fs - replayed coordinator rungs %.3fs",
		tr.wall.Seconds(), covered, charged))
}

// evalCounts returns how many evaluation passes a run of rounds made (the
// periodic ones and the final one) and how many client evaluations they
// made in total.
func evalCounts(rp *replica, rounds int) (passes, visits int) {
	every := rp.cfg.EvalEvery
	if every <= 0 {
		every = 5
	}
	for round := 0; round < rounds; round++ {
		if (round+1)%every == 0 || round == rp.cfg.Rounds-1 {
			passes++
		}
	}
	passes++
	panel := rp.ds.Len()
	if p := rp.rt.EvalClients(); p != nil {
		panel = len(p)
	}
	return passes, passes * panel
}

// replayTrainStep times Model.TrainStep at the workload's batch size on a
// batch drawn from a traced client's shard.
func replayTrainStep(rp *replica, m *model.Model, clients []int) float64 {
	var cur data.ClientCursor
	c := 0
	if len(clients) > 0 {
		c = clients[0]
	}
	cl := rp.ds.Fetch(&cur, c)
	bs := min(rp.cfg.Local.BatchSize, len(cl.TrainY))
	idx := make([]int, max(1, bs))
	for i := range idx {
		idx[i] = i % max(1, len(cl.TrainY))
	}
	bx, by := &tensor.Tensor{}, make([]int, len(idx))
	data.BatchInto(bx, by, cl.TrainX, cl.TrainY, idx)
	opt := nn.NewSGD(rp.cfg.Local.LR)
	return timePerCall(func() { m.TrainStep(bx, by, opt) })
}

func newAggregator(rp *replica) aggregate.Aggregator {
	if rp.cfg.EdgeAggregators > 1 {
		return aggregate.NewTiered(rp.cfg.EdgeAggregators)
	}
	return aggregate.NewStreaming()
}

func updateFor(m *model.Model) aggregate.Update {
	return aggregate.Update{ModelID: m.ID, Weights: m.CopyWeights(), Samples: 16, Loss: 1}
}

// replayAdd times one accumulator fold of a model-shaped update.
func replayAdd(rp *replica, m *model.Model) float64 {
	agg, u := newAggregator(rp), updateFor(m)
	us := timePerCall(func() {
		if err := agg.Add(m, u); err != nil {
			panic(err)
		}
	})
	agg.Abort()
	return us
}

// replayFinalize times Finalize after one fold.
func replayFinalize(rp *replica, m *model.Model) float64 {
	agg, u := newAggregator(rp), updateFor(m)
	xs := make([]float64, 5)
	for i := range xs {
		if err := agg.Add(m, u); err != nil {
			panic(err)
		}
		t0 := time.Now()
		agg.Finalize(m)
		xs[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(xs)
}

// replaySoft times SoftAggregate on every prefix of the suite and charges
// each committed round the time for the suite it had: a model born in
// round b joins soft aggregation from round b+1. It returns the mean time
// per call and the call count.
func replaySoft(rp *replica, suite []suiteModel, rounds int) (float64, int) {
	models := make([]*model.Model, len(suite))
	for i, sm := range suite {
		models[i] = sm.m
	}
	perSize := map[int]float64{}
	for k := 2; k <= len(models); k++ {
		perSize[k] = timePerCall(func() { aggregate.SoftAggregate(models[:k], rounds, rp.cfg.Soft) })
	}
	total, calls := 0.0, 0
	for round := 0; round < rounds; round++ {
		size := 1
		for _, sm := range suite[1:] {
			if sm.born < round {
				size++
			}
		}
		if size >= 2 {
			total += perSize[size]
			calls++
		}
	}
	if calls == 0 {
		return 0, 0
	}
	return total / float64(calls), calls
}

// replayTransform times transform.Apply deriving each suite model from its
// predecessor, with cells picked from the predecessor's weight activeness.
func replayTransform(rp *replica, suite []suiteModel) float64 {
	if len(suite) < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	total := 0.0
	for i := 1; i < len(suite); i++ {
		parent := suite[i-1].m
		sel := transform.SelectCells(parent, parent.CellActiveness(), rp.cfg.Transform, rng)
		total += timePerCall(func() { transform.Apply(parent, sel, rp.cfg.Transform, suite[i].born, rng).Release() })
	}
	return total / float64(len(suite)-1)
}

// replayDecode times decoding a model's weight blob into existing tensors.
func replayDecode(m *model.Model) float64 {
	blob := codec.Encode(m.Params())
	dst := m.CopyWeights()
	return timePerCall(func() {
		if err := codec.DecodeInto(dst, blob); err != nil {
			panic(err)
		}
	})
}
