// Command fedbench is the repository's benchmark: it runs one FedTrans
// workload through the public fedtrans API, checks that the outputs are
// correct, and prints every metric by name and unit, ending with one JSON
// line
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// Run it from the root of the checkout through the script beside it, which
// builds it from source first:
//
//	bash fedbench/run.sh --workload paper-cifar --seed 1 --seconds 30 --trace 0
//
// # Workloads
//
// Every workload trains a suite and serves the suite's model 0
// (ExportModel(0) → LoadModel → InferenceServer), so every workload reports
// every end-to-end metric; each puts its load on a different layer. The
// seed feeds Options.Seed and the serving generator. A run trains a fixed
// number of times, each on a sub-seed derived from the seed, and reports
// the median throughput and the mean accuracy, MACs and bytes. After each
// training repetition it serves that repetition's model 0 until the
// repetition's share of --seconds has passed, and makes at least 20
// serving rounds in all. Set-up time is the median of 15 set-ups
// (NewSession, then deploying its model 0); peak RSS is read at the end.
//
//   - paper-cifar: DefaultOptions on the cifar10 profile (50 clients, 10
//     per round, 20 local steps, 120 rounds, transformation on). It is the
//     paper's multi-model setting on conv models and is compute-bound:
//     conv im2col/col2im, GEMM and ReLU under Model.TrainStep take most of
//     the time. It shows kernel and cell gains and should not move when
//     only per-client overhead changes. Layers: tensor/nn/model, transform.
//   - gen-scale: ScaleOptions with a generative population of 10⁶ clients,
//     2000 participants per round, four edge aggregators and a 500-client
//     evaluation panel. Per-client overhead does the work and kernels do
//     little: lazy Dataset.Fetch and Trace.At synthesis (RNG reseeding),
//     session set-up and the tiered aggregator folds. A keyed-RNG change
//     must show here. Layers: data, device, fl (session), aggregate.
//   - net-async: AsyncOptions (femnist geometry, staleness 2) with 20
//     commits per round, 5 local steps, seeded straggler chaos and a
//     checkpoint every 10 rounds, trained through a ServeAddr coordinator
//     with two in-process agents (RunAgent). It is the only workload on
//     the wire, and it loads aggregate differently from the others:
//     staleness-discounted asynchronous folds and soft aggregation across
//     the ~10-model suite it grows. Layers: codec/netcoord, fl (async
//     round loop, checkpoints), aggregate (soft).
//   - serve-open: short cifar10 runs (30 rounds) whose model 0 is served
//     open-loop at 16000 requests/s, below the direct path's ceiling, and
//     closed-loop at saturation, for most of the run. No training
//     workload loads the batching dispatcher this long. Layers:
//     Deployed, InferenceServer.
//
// # Serving
//
// The load is open-loop: Poisson arrivals at fixed rates drawn from the
// seed, each request timed from its due time, so a stalled sender charges
// its stall to the requests it delayed; the sender's lateness is reported
// (serve.gen_lag_p99_us). Requests are in-process because an
// InferenceClient is one connection per caller, and two connections build
// no queue. While serving, the process runs on one scheduler thread; see
// newLoadGen for why. Each training repetition's model is loaded into a
// new server, from a collected heap, and served an untimed quarter second
// at the reference rate (8000/s; 16000/s on serve-open). Then come serving
// rounds: a timed quarter-second window at that rate and a closed-loop
// window. predict_p50_us is the 90th percentile over rounds of each
// window's p50; the median of the windows' p99 is printed beside it but
// not gated (see endToEnd). predict_max_rps is the 10th percentile over
// rounds of the rate the server sustains with 128 requests outstanding
// (two full batches): the highest rate it serves without a growing
// backlog, at a latency of a few milliseconds. Both read the slower of
// the two speeds the host runs the server at (see servingRounds).
//
// # Tracing
//
// With --trace 1 the run is the per-layer breakdown instead; it ignores
// --seconds. It trains once untraced and once on a replica of the
// session's fl.Runtime (built from the same constructors as NewSession)
// with a span-recording Trainer: an fl.ClientTrainer pool for in-process
// workloads, a decorator around the netcoord.Hub for net-async. Waiting
// is visible only on the serving side (generator lateness). Spans carry (round, client, attempt) as
// the request identifier and are written to
// $FEDBENCH_OUT/spans-<workload>-seed<n>.jsonl. The traced run must
// reproduce the untraced accuracy, MACs, bytes and round count exactly.
// Layers the program calls internally (aggregate, transform, evaluation,
// Trace.At) are replayed: their exported entry points are timed at the
// workload's shapes on the exported suite and charged by the call counts
// the run implies; fl.run.unexplained_s is the wall time neither the spans
// nor those charges cover. trace.overhead_pct compares the traced and
// untraced run times. The program itself carries no tracing.
//
// Every result line is preceded by the host it ran on (CPU model, SIMD
// level, GOMAXPROCS, nproc, Go version, commit) and by the share of CPU
// time the hypervisor stole during the run; results compare only on the
// same host, and a run with a large steal share measured the host.
package main
