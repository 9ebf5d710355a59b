package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The character sets a benchmark definition allows in names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnitsUseTheAllowedCharset(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q breaks the charset", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("unit %q of %s breaks the charset", d.unit, d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %s is defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q breaks the charset or reuses a name", w.name)
		}
		seen[w.name] = true
	}
}

// The benchmark definition at the root of the checkout must declare the
// metrics and workloads this program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, def.Workloads[i].Name, w.name)
		}
	}
}

func TestReportPrintsEveryMetricAndEndsWithTheResult(t *testing.T) {
	r := newReport()
	r.attempted = 3
	for _, d := range endToEnd {
		r.set(d.name, 1.5)
	}
	var buf bytes.Buffer
	if err := r.write(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
	r.check(false, "broken")
	buf.Reset()
	if err := r.write(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Error("a failed check did not mark the result incorrect")
	}
	delete(r.values, "setup_s")
	if err := r.write(&buf, endToEnd); err == nil {
		t.Error("a missing metric was not reported")
	}
}
