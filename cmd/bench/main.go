// Command bench runs the repository's perf-tracking microbenchmarks
// (GEMM, conv forward/backward, the training step, all-client
// evaluation, and sustained inference serving) and writes a
// machine-readable BENCH_<n>.json so future
// PRs can track the performance trajectory:
//
//	go run ./cmd/bench              # writes the next unused BENCH_<n>.json
//	go run ./cmd/bench -out my.json -benchtime 500ms
//	go run ./cmd/bench -out BENCH_2.json -compare BENCH_1.json
//
// Each record is {op, iterations, ns_per_op, bytes_per_op, allocs_per_op}.
// With -compare, per-op deltas against the previous snapshot are printed
// after the run (ns/op and B/op ratios, alloc changes), and the process
// exits non-zero when any tracked op regresses by more than -maxregress
// (default 10%) — the regression guard CI runs against the committed
// baseline snapshot. Ops present in the snapshot but not measured this
// run (renamed benchmark, stale suites regex) produce a stderr warning
// but do not fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// BenchResult is one benchmark measurement.
type BenchResult struct {
	Op          string  `json:"op"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// suites lists the benchmark regex per package; kept explicit so the
// perf trajectory stays comparable across PRs.
var suites = []struct {
	pkg   string
	bench string
}{
	{"./internal/tensor/", "BenchmarkMatMul|BenchmarkBatchedMatMul"},
	{"./internal/nn/", "BenchmarkConvForward|BenchmarkConvBackward|BenchmarkAttentionForward|BenchmarkAttentionBackward"},
	{"./internal/model/", "BenchmarkClone"},
	{"./internal/fl/", "BenchmarkLocalTrainStep|BenchmarkEvaluateAll|BenchmarkRoundLoop|BenchmarkClientSetup|BenchmarkAsyncRoundLoop|BenchmarkCheckpointSnapshot|BenchmarkCheckpointEncode"},
	// Serving: sustained predictions/sec through the pooled
	// InferenceServer vs the per-call Predict baseline. The guard also
	// pins the >= 2x throughput ratio between the pair.
	{"./", "BenchmarkPredictDirect|BenchmarkPredictServe"},
}

// benchLine matches e.g.
// BenchmarkConvForward/im2col-4   450   532857 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// compareTo prints per-op deltas of results against the snapshot at
// path (written by a previous run) and returns the ops whose ns/op
// regressed by more than maxRegress (0.10 = 10% slower) — the
// regression guard CI runs against the committed baseline. Ops absent
// from the previous snapshot are reported as new and never count as
// regressions; ops present in the snapshot but missing from this run
// are returned in missing so the caller can warn — a renamed benchmark
// or a stale suites regex is surfaced, but does not fail the guard.
func compareTo(path string, results []BenchResult, maxRegress float64) (regressed, missing []string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var prev []BenchResult
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	prevByOp := make(map[string]BenchResult, len(prev))
	for _, r := range prev {
		prevByOp[r.Op] = r
	}
	nowByOp := make(map[string]bool, len(results))
	for _, r := range results {
		nowByOp[r.Op] = true
	}
	for _, p := range prev {
		if !nowByOp[p.Op] {
			missing = append(missing, p.Op)
		}
	}
	fmt.Printf("%-28s %14s %14s %9s %12s %9s\n",
		"op", "ns/op (prev)", "ns/op (now)", "speedup", "B/op", "allocs")
	for _, r := range results {
		p, ok := prevByOp[r.Op]
		if !ok {
			fmt.Printf("%-28s %14s %14.0f %9s %12d %9d  (new)\n",
				r.Op, "-", r.NsPerOp, "-", r.BytesPerOp, r.AllocsPerOp)
			continue
		}
		speedup := "-"
		if r.NsPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", p.NsPerOp/r.NsPerOp)
		}
		flag := ""
		if p.NsPerOp > 0 && r.NsPerOp > p.NsPerOp*(1+maxRegress) {
			regressed = append(regressed, fmt.Sprintf("%s (%.0f → %.0f ns/op, %+.1f%%)",
				r.Op, p.NsPerOp, r.NsPerOp, 100*(r.NsPerOp/p.NsPerOp-1)))
			flag = "  REGRESSED"
		}
		fmt.Printf("%-28s %14.0f %14.0f %9s %5d→%-6d %4d→%-4d%s\n",
			r.Op, p.NsPerOp, r.NsPerOp, speedup,
			p.BytesPerOp, r.BytesPerOp, p.AllocsPerOp, r.AllocsPerOp, flag)
	}
	return regressed, missing, nil
}

// serveSpeedupFloor is the predictions/sec multiple the pooled serving
// path must sustain over the per-call Predict baseline, at zero
// steady-state allocations — the serving acceptance this tool guards on
// every run that measures the pair.
const serveSpeedupFloor = 2.0

// checkServeGuard enforces the serving-throughput contract when both
// sides of the pair were measured this run.
func checkServeGuard(results []BenchResult) error {
	var direct, serve *BenchResult
	for i := range results {
		switch results[i].Op {
		case "PredictDirect":
			direct = &results[i]
		case "PredictServe":
			serve = &results[i]
		}
	}
	if direct == nil || serve == nil || serve.NsPerOp <= 0 {
		return nil
	}
	if ratio := direct.NsPerOp / serve.NsPerOp; ratio < serveSpeedupFloor {
		return fmt.Errorf("serving throughput %.2fx the per-call baseline, want >= %.1fx (direct %.0f ns/op, serve %.0f ns/op)",
			ratio, serveSpeedupFloor, direct.NsPerOp, serve.NsPerOp)
	}
	if serve.AllocsPerOp != 0 {
		return fmt.Errorf("serving path allocates %d allocs/op in steady state, want 0", serve.AllocsPerOp)
	}
	return nil
}

// nextSnapshotName returns the first unused BENCH_<n>.json, so a bare
// run never overwrites a committed baseline snapshot.
func nextSnapshotName() string {
	for n := 1; ; n++ {
		name := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(name); os.IsNotExist(err) {
			return name
		}
	}
}

func main() {
	out := flag.String("out", "", "output file (default: first unused BENCH_<n>.json)")
	benchtime := flag.String("benchtime", "300ms", "go test -benchtime value")
	compare := flag.String("compare", "", "previous BENCH_<n>.json to print per-op deltas against")
	maxRegress := flag.Float64("maxregress", 0.10,
		"with -compare: exit non-zero when any tracked op's ns/op regresses by more than this fraction")
	flag.Parse()
	if *out == "" {
		*out = nextSnapshotName()
	}

	var results []BenchResult
	for _, s := range suites {
		cmd := exec.Command("go", "test", "-run=NONE",
			"-bench="+s.bench, "-benchmem", "-benchtime="+*benchtime, s.pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n%s", s.pkg, err, raw)
			os.Exit(1)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			r := BenchResult{Op: strings.TrimPrefix(m[1], "Benchmark")}
			r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
			r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
			if m[4] != "" {
				r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			}
			if m[5] != "" {
				r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
			}
			results = append(results, r)
		}
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmark output parsed")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d ops)\n", *out, len(results))
	if err := checkServeGuard(results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *compare != "" {
		regressed, missing, err := compareTo(*compare, results, *maxRegress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: compare:", err)
			os.Exit(1)
		}
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "bench: warning: %d op(s) in %s were not measured this run (renamed benchmark or stale suites regex?): %s\n",
				len(missing), *compare, strings.Join(missing, ", "))
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d op(s) regressed more than %.0f%% vs %s:\n",
				len(regressed), 100**maxRegress, *compare)
			for _, r := range regressed {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
	}
}
