package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them when tracing is off. The p99 prediction latency is
// printed beside them but not gated: on a shared two-core virtual
// machine its run-to-run spread (IQR over median, 0.4-0.6 at every rate
// tried) is twice the largest bound a metric may have, because random
// host stalls of a few milliseconds, not the server, set it. The traced
// run reports it as serve.p99_us.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"clients_per_s", "1/s"},
	{"mean_accuracy", "ratio"},
	{"train_gmacs", "GMAC"},
	{"net_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"predict_p50_us", "us"},
	{"predict_max_rps", "1/s"},
}

// perLayer are the traced run's metrics, one group per layer of the
// program. Every workload reports all of them when tracing is on; a
// layer the workload does not load reports zero calls.
var perLayer = []metricDef{
	{"fl.session.calls", "count"},
	{"fl.session.busy_s", "s"},
	{"fl.session.p50_us", "us"},
	{"fl.session.p99_us", "us"},
	{"fl.run.wall_s", "s"},
	{"fl.run.unexplained_s", "s"},
	{"fl.eval.calls", "count"},
	{"fl.eval.us", "us"},
	{"model.train_step.calls", "count"},
	{"model.train_step.us", "us"},
	{"data.fetch.calls", "count"},
	{"data.fetch.us", "us"},
	{"device.at.calls", "count"},
	{"device.at.us", "us"},
	{"aggregate.add.calls", "count"},
	{"aggregate.add.us", "us"},
	{"aggregate.finalize.calls", "count"},
	{"aggregate.finalize.us", "us"},
	{"aggregate.soft.calls", "count"},
	{"aggregate.soft.us", "us"},
	{"transform.apply.calls", "count"},
	{"transform.apply.us", "us"},
	{"netcoord.train.calls", "count"},
	{"netcoord.train.busy_s", "s"},
	{"netcoord.train.p50_us", "us"},
	{"netcoord.train.p99_us", "us"},
	{"netcoord.wire_errors", "count"},
	{"codec.encode_us", "us"},
	{"codec.decode_us", "us"},
	{"codec.bytes", "B"},
	{"fl.checkpoint.calls", "count"},
	{"fl.checkpoint.bytes", "B"},
	{"fl.checkpoint.encode_us", "us"},
	{"deploy.predict.us", "us"},
	{"deploy.predict_batch64.us_per_row", "us"},
	{"serve.sent", "count"},
	{"serve.failed", "count"},
	{"serve.inflight_max", "count"},
	{"serve.gen_lag_p99_us", "us"},
	{"serve.p99_us", "us"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects metrics, operation counts and correctness failures for
// one run.
type report struct {
	values    map[string]float64
	notes     map[string]string
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note attaches a human-readable qualifier to a metric, printed next to
// it (for example which percentile a tail figure is).
func (r *report) note(name, text string) { r.notes[name] = text }

// check records a correctness failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// write prints every metric of defs by name with its unit, the
// correctness problems, and finally the one-line JSON result. A metric
// of defs that was never set is a bug in the benchmark.
func (r *report) write(w io.Writer, defs []metricDef) error {
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-36s %16.6g %s", d.name, v, d.unit)
		if n := r.notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	var extra []string
	for name := range r.values {
		if !hasMetric(defs, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-36s %16.6g\n", "("+name+")", r.values[name])
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
		fmt.Fprintln(w, "INCORRECT: no operation was attempted")
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(js))
	return err
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
