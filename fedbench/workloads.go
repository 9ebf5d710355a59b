package main

import "fedtrans"

// workload is one benchmark input: a training run through the public
// fedtrans API followed by open-loop serving of the run's model 0.
type workload struct {
	name string
	// options builds the training Options for a seed.
	options func(seed int64) fedtrans.Options
	// seeds is the number of training repetitions in a run, each on its
	// own sub-seed. It is fixed, not timed, so the per-seed figures
	// average the same draws however fast the program runs. It is sized
	// for a 30-second run on a 2-core host: about half of it trains, the
	// rest serves. paper-cifar needs two 9-to-11-second seeds to average
	// its accuracy, so its runs last 30-35 s (see minRounds).
	seeds int
	// serveRate is the offered rate, in requests/s, of the open-loop
	// windows that report predict_p50_us and the p99 beside it.
	serveRate float64
}

// agents is the number of in-process agent connections a workload with
// a ServeAddr opens: one per core the benchmark may use.
const agents = 2

var workloads = []workload{
	{
		name: "paper-cifar",
		options: func(seed int64) fedtrans.Options {
			o := fedtrans.DefaultOptions()
			o.Profile = "cifar10"
			o.Seed = seed
			return o
		},
		seeds:     2,
		serveRate: 8000,
	},
	{
		name: "gen-scale",
		options: func(seed int64) fedtrans.Options {
			o := fedtrans.ScaleOptions()
			o.Population = 1_000_000
			o.EdgeAggregators = 4
			o.ClientsPerRound = 2000
			o.Rounds = 10
			o.EvalSample = 500
			o.Seed = seed
			return o
		},
		seeds:     6,
		serveRate: 8000,
	},
	{
		name: "net-async",
		options: func(seed int64) fedtrans.Options {
			o := fedtrans.AsyncOptions()
			o.ClientsPerRound = 20
			o.LocalSteps = 5
			o.Chaos = fedtrans.ChaosOptions{StragglerRate: 0.2, StragglerDelay: 5}
			o.CheckpointEvery = 10
			o.ServeAddr = "127.0.0.1:0"
			o.Seed = seed
			return o
		},
		seeds:     15,
		serveRate: 8000,
	},
	{
		name: "serve-open",
		options: func(seed int64) fedtrans.Options {
			o := fedtrans.DefaultOptions()
			o.Profile = "cifar10"
			o.Rounds = 30
			o.Seed = seed
			return o
		},
		seeds:     5,
		serveRate: 16000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
