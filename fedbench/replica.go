package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"fedtrans"
	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/netcoord"
)

// replica is the fl.Runtime that fedtrans.NewSession builds for a
// workload's Options, rebuilt from the same constructors so the traced run
// can install its own Trainer. The traced ≡ untraced check on every traced
// run catches any drift between this wiring and NewSession's.
type replica struct {
	rt    *fl.Runtime
	cfg   fl.Config
	dcfg  data.Config
	ds    *data.Dataset
	trace *device.Trace
}

// newReplica mirrors NewSession for the Options the workloads use (their
// defaults are already filled in by the fedtrans option constructors).
// trainer, when non-nil, builds the Trainer from the partly built
// replica (its dataset and config are set); sink receives checkpoints
// when o asks for them.
func newReplica(o fedtrans.Options, trainer func(*replica) (fl.Trainer, error), sink func(int, []byte)) (*replica, error) {
	if o.Population > 0 {
		o.Clients = o.Population
	}
	model.ResetIDs()
	dcfg := data.Config{Profile: o.Profile, Clients: o.Clients, Heterogeneity: o.Heterogeneity, Seed: o.Seed}
	switch o.Profile {
	case "async":
		dcfg.Profile = "femnist"
	case "scale":
		dcfg.MinSamples, dcfg.MaxSamples, dcfg.TestSamples = 8, 16, 8
	}
	var ds *data.Dataset
	if o.Population > 0 {
		ds = data.GenerateLazy(dcfg)
	} else {
		ds = data.Generate(dcfg)
	}
	var spec model.Spec
	switch o.Profile {
	case "cifar10":
		spec = model.MobileNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	case "femnist", "scale", "async":
		spec = model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	default:
		return nil, fmt.Errorf("no traced replica for profile %q", o.Profile)
	}
	base := spec.Build(rand.New(rand.NewSource(o.Seed))).MACsPerSample()
	tcfg := device.TraceConfig{
		N: o.Clients, MinCapacityMACs: base, MaxCapacityMACs: base * o.CapacitySpread, Seed: o.Seed + 100,
	}
	var trace *device.Trace
	if o.Population > 0 {
		trace = device.NewTraceLazy(tcfg)
	} else {
		trace = device.NewTrace(tcfg)
	}
	cfg := fl.DefaultConfig()
	cfg.Rounds = o.Rounds
	cfg.ClientsPerRound = o.ClientsPerRound
	cfg.Local = fl.LocalConfig{Steps: o.LocalSteps, BatchSize: o.BatchSize, LR: o.LearningRate}
	cfg.Transform.Alpha = o.Alpha
	cfg.Transform.Beta = o.Beta
	cfg.Transform.Gamma = o.Gamma
	cfg.Transform.Delta = o.Delta
	cfg.Transform.WidenFactor = o.WidenFactor
	cfg.Transform.DeepenCells = o.DeepenCells
	cfg.StreamWindow = o.StreamWindow
	cfg.MaxStaleness = o.MaxStaleness
	cfg.AsyncConcurrency = o.AsyncConcurrency
	cfg.EdgeAggregators = o.EdgeAggregators
	cfg.Seed = o.Seed
	cfg.EvalSample = o.EvalSample
	if c := o.Chaos; c.StragglerRate > 0 || c.CrashRate > 0 || c.CorruptUploadRate > 0 || c.NonFiniteRate > 0 {
		seed := c.Seed
		if seed == 0 {
			seed = o.Seed + 10_007
		}
		cfg.Chaos = chaos.Config{Seed: seed, CrashRate: c.CrashRate, CorruptRate: c.CorruptUploadRate,
			NonFiniteRate: c.NonFiniteRate, StragglerRate: c.StragglerRate, StragglerDelay: c.StragglerDelay}
	}
	if o.CheckpointPath != "" {
		cfg.CheckpointEvery = o.CheckpointEvery
		cfg.CheckpointSink = sink
	}
	r := &replica{cfg: cfg, dcfg: dcfg, ds: ds, trace: trace}
	if trainer != nil {
		t, err := trainer(r)
		if err != nil {
			return nil, err
		}
		r.cfg.Trainer = t
	}
	r.rt = fl.New(r.cfg, ds, trace, spec)
	return r, nil
}

// hubFor opens the coordinator a networked replica trains through.
func hubFor(o fedtrans.Options, dcfg data.Config, local fl.LocalConfig) (*netcoord.Hub, error) {
	return netcoord.NewHub(o.ServeAddr, netcoord.RunConfig{
		Data:       dcfg,
		Generative: o.Population > 0,
		Local:      local,
		IOTimeout:  time.Duration(o.ClientTimeout * float64(time.Second)),
	})
}

// writeCheckpoint stores a checkpoint the way a session does: to a temp
// file renamed over the target.
func writeCheckpoint(path string, blob []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
