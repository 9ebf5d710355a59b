package main

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"time"

	"fedtrans"
)

// trainRun is one untraced Session.Run.
type trainRun struct {
	run  time.Duration
	sum  fedtrans.Summary
	sess *fedtrans.Session
}

// trainOnce builds a session for o and runs it to completion. A networked
// session is served by in-process agents that the function also waits for.
func trainOnce(o fedtrans.Options) (trainRun, error) {
	s, err := fedtrans.NewSession(o)
	if err != nil {
		return trainRun{}, err
	}
	var agentDone chan error
	if o.ServeAddr != "" {
		agentDone = make(chan error, 1)
		go func() { agentDone <- fedtrans.RunAgent(s.CoordinatorAddr(), agents) }()
	}
	t0 := time.Now()
	sum := s.Run()
	d := time.Since(t0)
	if agentDone != nil {
		if err := <-agentDone; err != nil {
			return trainRun{}, fmt.Errorf("agents: %w", err)
		}
	}
	if err := s.CheckpointError(); err != nil {
		return trainRun{}, err
	}
	return trainRun{run: d, sum: sum, sess: s}, nil
}

// setupOnce times everything a workload does before its measured work:
// building the session and deploying its model 0 behind an inference
// server. The session and server are closed again.
func setupOnce(o fedtrans.Options) (time.Duration, error) {
	t0 := time.Now()
	s, err := fedtrans.NewSession(o)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	blob, err := s.ExportModel(0)
	if err != nil {
		return 0, err
	}
	d, err := fedtrans.LoadModel(blob)
	if err != nil {
		return 0, err
	}
	srv := fedtrans.NewInferenceServer(d, 0)
	elapsed := time.Since(t0)
	srv.Close()
	return elapsed, nil
}

// checkSummary applies the checks every training run must pass.
func checkSummary(r *report, w workload, sum fedtrans.Summary) {
	r.check(sum.Failures == 0, "%s: %d client failures on a fault-free workload", w.name, sum.Failures)
	r.check(sum.AbortedRounds == 0, "%s: %d aborted rounds on a fault-free workload", w.name, sum.AbortedRounds)
	r.check(sum.Rounds > 0, "%s: no round ran", w.name)
	r.check(sum.MeanAccuracy > 0 && sum.TrainMACs > 0 && sum.NetworkBytes > 0,
		"%s: empty summary (accuracy %g, MACs %g, bytes %d)", w.name, sum.MeanAccuracy, sum.TrainMACs, sum.NetworkBytes)
	if w.name == "paper-cifar" {
		r.check(len(sum.Models) > 1, "%s: the suite never grew past the initial model", w.name)
	}
}

// countAttempts charges a run's client attempts to the report.
func countAttempts(r *report, o fedtrans.Options, sum fedtrans.Summary) {
	r.attempted += int64(sum.Rounds*o.ClientsPerRound + sum.Retries)
	r.failed += int64(sum.Failures + sum.AbortedRounds)
}

// subSeed derives the seed of a run's j-th training repetition. Each
// repetition trains on other inputs, so the per-seed figures (accuracy,
// MACs, bytes) are averaged over several draws within one run.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// measureTraining runs the workload's training repetitions, each on its
// own sub-seed, and reports the end-to-end training metrics: the median
// throughput and the mean of the per-seed figures. After each repetition
// it calls after with the repetition's index and session.
func measureTraining(r *report, w workload, o fedtrans.Options, after func(j int, s *fedtrans.Session) error) error {
	var rates, acc, macs, bytes []float64
	for j := 0; j < w.seeds; j++ {
		// Start every repetition from a collected heap, so the earlier
		// repetitions' garbage does not ride into its peak memory.
		debug.FreeOSMemory()
		oj := o
		oj.Seed = subSeed(o.Seed, j)
		tr, err := trainOnce(oj)
		if err != nil {
			return err
		}
		checkSummary(r, w, tr.sum)
		countAttempts(r, oj, tr.sum)
		rates = append(rates, float64(tr.sum.Rounds*o.ClientsPerRound)/tr.run.Seconds())
		acc = append(acc, tr.sum.MeanAccuracy)
		macs = append(macs, tr.sum.TrainMACs/1e9)
		bytes = append(bytes, float64(tr.sum.NetworkBytes)/1e6)
		if j == 0 && o.ServeAddr != "" {
			// The wire must be invisible: the same Options run
			// in-process give the identical Summary.
			local := oj
			local.ServeAddr = ""
			local.CheckpointPath = oj.CheckpointPath + ".local"
			lt, err := trainOnce(local)
			if err != nil {
				return err
			}
			r.check(reflect.DeepEqual(tr.sum, lt.sum), "%s: networked summary differs from the in-process run", w.name)
		}
		if err := after(j, tr.sess); err != nil {
			return err
		}
	}
	r.set("clients_per_s", median(rates))
	r.note("clients_per_s", fmt.Sprintf("median of %d runs", len(rates)))
	r.set("mean_accuracy", mean(acc))
	r.set("train_gmacs", mean(macs))
	r.set("net_mb", mean(bytes))
	r.note("mean_accuracy", fmt.Sprintf("mean over %d seeds", len(acc)))
	return nil
}
