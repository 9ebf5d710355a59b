package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fedtrans"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupSamples is how many times a run sets its workload up to report the
// median set-up time.
const setupSamples = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fedbench: need --workload (one of")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintf(stderr, "), a non-zero --seed, --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	if err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "fedbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func runWorkload(w workload, seed int64, budget time.Duration, traced bool, stdout io.Writer) error {
	out := os.Getenv("FEDBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	host, err := json.Marshal(currentHost())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", w.name, seed, budget.Seconds(), traced)

	o := w.options(seed)
	if o.CheckpointEvery > 0 {
		o.CheckpointPath = filepath.Join(dir, "run.ckpt")
	}
	rep := newReport()
	start := time.Now()
	total0, steal0 := cpuTicks()
	// finish prints the host's steal share over the run, then the metrics
	// of defs and the result line, which must come last.
	finish := func(defs []metricDef) error {
		if total1, steal1 := cpuTicks(); total1 > total0 {
			fmt.Fprintf(stdout, "host steal %.2f%% of CPU time during the run\n",
				100*float64(steal1-steal0)/float64(total1-total0))
		}
		return rep.write(stdout, defs)
	}

	if traced {
		sess, err := traceTraining(rep, w, o, out, seed)
		if err != nil {
			return err
		}
		d, err := deployModel0(sess)
		if err != nil {
			return err
		}
		if err := traceServing(rep, w, d, seed); err != nil {
			return err
		}
		return finish(perLayer)
	}

	setups := make([]float64, setupSamples)
	for i := range setups {
		d, err := setupOnce(o)
		if err != nil {
			return err
		}
		setups[i] = d.Seconds()
	}
	rep.set("setup_s", median(setups))
	rep.note("setup_s", fmt.Sprintf("median of %d set-ups", setupSamples))
	// Serving rounds follow every training repetition, on its model 0,
	// until that repetition's share of the budget has passed. Spread over
	// the whole run, they sample the host's slow and fast spells in the
	// same proportion as training does.
	var sv servingRounds
	perSeed := (minRounds + w.seeds - 1) / w.seeds
	err = measureTraining(rep, w, o, func(j int, s *fedtrans.Session) error {
		blob, err := s.ExportModel(0)
		if err != nil {
			return err
		}
		deadline := start.Add(budget * time.Duration(j+1) / time.Duration(w.seeds))
		return sv.serve(rep, w, blob, subSeed(seed, j), deadline, perSeed)
	})
	if err != nil {
		return err
	}
	sv.report(rep, w)
	rep.set("peak_rss_mb", peakRSSMB())
	return finish(endToEnd)
}
