package fl

import (
	"fmt"
	"math/rand"
	"testing"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/rng"
)

func benchRuntime(profile string) *Runtime {
	ds := data.Generate(data.Config{Profile: profile, Clients: 24, Heterogeneity: 1, Seed: 1})
	var spec model.Spec
	if profile == "cifar10" {
		spec = model.MobileNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	} else {
		spec = model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	}
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: 24, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	})
	cfg := DefaultConfig()
	cfg.Rounds = 3
	return New(cfg, ds, tr, spec)
}

// BenchmarkRoundLoop measures one full streaming round — selection,
// assignment, parallel local training, clip, accumulator folding,
// finalize, utility updates — at increasing participants per round over
// a fixed dataset and suite. The headline claim is the B/op column: with
// the sharded streaming accumulator and pooled sessions/upload buffers,
// round allocation no longer scales with ClientsPerRound (the buffered
// loop retained every participant's full weight tensors), so the 1000-
// client round must stay within ~2× of the 100-client round's B/op.
func BenchmarkRoundLoop(b *testing.B) {
	for _, cpr := range []int{100, 1000} {
		b.Run(fmt.Sprintf("clients=%d", cpr), func(b *testing.B) {
			model.ResetIDs()
			ds := data.Generate(data.Config{
				Profile: "scale", Clients: 1200, Heterogeneity: 1,
				MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
			})
			spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
			base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
			tr := device.NewTrace(device.TraceConfig{
				N: 1200, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
			})
			cfg := DefaultConfig()
			cfg.ClientsPerRound = cpr
			cfg.Local = LocalConfig{Steps: 2, BatchSize: 8, LR: 0.05}
			cfg.DisableTransform = true // fixed suite across iterations
			cfg.ConvergePatience = 0
			rt := New(cfg, ds, tr, spec)
			var res Result
			rt.runRound(0, &res) // warm pools, sessions, accumulators
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.runRound(i+1, &res)
			}
		})
	}
	// Generative variant: the same round shape at 10000 participants
	// drawn from a 100000-client synthesized population. Server state is
	// O(active), so B/op must stay flat per participant versus the
	// materialized sub-benchmarks, and setup (GenerateLazy/NewTraceLazy)
	// is population-independent.
	b.Run("gen-clients=10000", func(b *testing.B) {
		model.ResetIDs()
		ds := data.GenerateLazy(data.Config{
			Profile: "scale", Clients: 100_000, Heterogeneity: 1,
			MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
		})
		spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
		base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
		tr := device.NewTraceLazy(device.TraceConfig{
			N: 100_000, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
		})
		cfg := DefaultConfig()
		cfg.ClientsPerRound = 10_000
		cfg.Local = LocalConfig{Steps: 2, BatchSize: 8, LR: 0.05}
		cfg.DisableTransform = true // fixed suite across iterations
		cfg.ConvergePatience = 0
		rt := New(cfg, ds, tr, spec)
		var res Result
		rt.runRound(0, &res) // warm pools, sessions, accumulators
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.runRound(i+1, &res)
		}
	})
}

// BenchmarkClientSetup measures the per-client cost a generative round
// pays before training starts: synthesizing the client's shard
// (Dataset.Fetch), its device (Trace.At) and rekeying the session RNG.
// No other rung measures it, so RoundLoop time it takes went
// unexplained.
func BenchmarkClientSetup(b *testing.B) {
	b.Run("gen", func(b *testing.B) {
		const n = 100_000
		ds := data.GenerateLazy(data.Config{
			Profile: "scale", Clients: n, Heterogeneity: 1,
			MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
		})
		spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
		tr := device.NewTraceLazy(device.TraceConfig{N: n, MinCapacityMACs: 1e3, Seed: 101})
		sess := newLocalSession(spec.Build(rng.New(0)))
		sess.rng.Rekey(0)
		ds.Fetch(&sess.cur, 0) // warm the cursor's buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % n
			ds.Fetch(&sess.cur, k)
			tr.At(k)
			sess.rng.Rekey(rng.Key(1, rng.Train, 0, k, 0))
		}
	})
}

// BenchmarkEvaluateAll measures the parallel all-client evaluation that
// runs every EvalEvery rounds and at convergence.
func BenchmarkEvaluateAll(b *testing.B) {
	rt := benchRuntime("cifar10")
	rt.Run() // warm: train a few rounds so the suite is realistic
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.EvaluateAll()
	}
}

// BenchmarkLocalTrainStep measures one SGD step of the conv model — the
// training inner loop. Steady-state steps reuse pooled workspaces, so
// allocs/op should stay near zero.
func BenchmarkLocalTrainStep(b *testing.B) {
	rt := benchRuntime("cifar10")
	m := rt.Suite()[0].Clone()
	defer m.ReleaseWorkspaces()
	cl := &rt.ds.Clients[0]
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultLocalConfig()
	opt := nn.NewSGD(cfg.LR)
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = rng.Intn(len(cl.TrainY))
	}
	bx, by := data.Batch(cl.TrainX, cl.TrainY, idx)
	m.TrainStep(bx, by, opt) // warm the workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(bx, by, opt)
	}
}

// TestTrainStepAllocationRegression pins the allocation-free training
// inner loop: after workspace warmup (which also unshares the clone's
// COW weight buffers and materializes its lazy gradients), one SGD step
// of the conv model must allocate at most once per step — everything
// tensor-sized is pooled or owned, and since ZeroGrads started walking
// the cached grad slice the steady state measures zero.
func TestTrainStepAllocationRegression(t *testing.T) {
	rt := benchRuntime("cifar10")
	m := rt.Suite()[0].Clone()
	defer m.ReleaseWorkspaces()
	cl := &rt.ds.Clients[0]
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultLocalConfig()
	opt := nn.NewSGD(cfg.LR)
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = rng.Intn(len(cl.TrainY))
	}
	bx, by := data.Batch(cl.TrainX, cl.TrainY, idx)
	m.TrainStep(bx, by, opt) // warm the workspaces
	allocs := testing.AllocsPerRun(20, func() {
		m.TrainStep(bx, by, opt)
	})
	if allocs > 1 {
		t.Errorf("TrainStep allocates %.1f times per step, want <= 1", allocs)
	}
}

// BenchmarkAsyncRoundLoop measures one staleness-bounded asynchronous
// round — top-up selection over the non-busy population, COW dispatch
// snapshots, background training through par.TaskStream, arrival-ordered
// staleness-discounted folding, and the virtual-clock advance — at
// increasing commit budgets. Tracked by cmd/bench next to the
// synchronous BenchmarkRoundLoop so the unified path's overhead over
// sync stays visible round over round.
func BenchmarkAsyncRoundLoop(b *testing.B) {
	for _, cpr := range []int{100, 1000} {
		b.Run(fmt.Sprintf("clients=%d", cpr), func(b *testing.B) {
			model.ResetIDs()
			ds := data.Generate(data.Config{
				Profile: "scale", Clients: 2400, Heterogeneity: 1,
				MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
			})
			spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
			base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
			tr := device.NewTrace(device.TraceConfig{
				N: 2400, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
			})
			cfg := DefaultConfig()
			cfg.ClientsPerRound = cpr
			cfg.MaxStaleness = 2
			cfg.Local = LocalConfig{Steps: 2, BatchSize: 8, LR: 0.05}
			cfg.DisableTransform = true // fixed suite across iterations
			cfg.ConvergePatience = 0
			rt := New(cfg, ds, tr, spec)
			var res Result
			rt.runRound(0, &res) // warm pools, sessions, the in-flight set
			rt.runRound(1, &res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.runRound(i+2, &res)
			}
			b.StopTimer()
			rt.drainAsync()
		})
	}
}

// TestEvaluateAllAllocationRegression pins the pooled evaluation path:
// with sessions drawn from the runtime's shared pool (and refreshed via
// SetWeights instead of cloned), a steady-state EvaluateAll allocates
// only small per-client bookkeeping — result slices, compatibility
// lists, chunk-local session maps — never weight-tensor-sized buffers.
// The budget scales with the client count, not the model size.
func TestEvaluateAllAllocationRegression(t *testing.T) {
	rt := benchRuntime("cifar10")
	rt.Run()
	rt.EvaluateAll() // warm the session pool across eval chunks
	allocs := testing.AllocsPerRun(10, func() { rt.EvaluateAll() })
	budget := float64(2*len(rt.ds.Clients) + 16)
	if allocs > budget {
		t.Errorf("EvaluateAll allocates %.1f times per call, want <= %.0f (pooled sessions must not clone models)", allocs, budget)
	}
}
