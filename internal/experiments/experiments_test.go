package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps unit tests fast; benches use Quick().
func tinyScale() Scale {
	return Scale{Clients: 16, Rounds: 30, ClientsPerRound: 6, Seed: 1}
}

func TestFigure1a(t *testing.T) {
	res := RunFigure1a(tinyScale())
	if res.Devices < 700 {
		t.Errorf("expected 700+ devices, got %d", res.Devices)
	}
	if res.Disparity < 29 {
		t.Errorf("capacity disparity %.1f < paper's 29x", res.Disparity)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 model rows, got %d", len(res.Rows))
	}
	// Larger models must have larger median latency.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].P50 <= res.Rows[i-1].P50 {
			t.Errorf("median latency not increasing with MACs: %v", res.Rows)
		}
	}
	// Distribution overlap between adjacent complexities (Figure 1a's
	// observation): p90 of smaller exceeds p10 of larger.
	if res.Rows[0].P90 <= res.Rows[1].P10 {
		t.Error("expected latency distribution overlap between adjacent models")
	}
	if !strings.Contains(res.String(), "p50(ms)") {
		t.Error("String() missing header")
	}
}

func TestFigure1b(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model training sweep")
	}
	res := RunFigure1b(tinyScale(), 4)
	total := 0.0
	for _, s := range res.Share {
		total += s
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares sum to %.1f, want 100", total)
	}
	// Figure 1b's finding: no single complexity level is best for the
	// majority of clients.
	if res.MaxShare > 75 {
		t.Errorf("one level dominates (%.1f%%); expected spread across levels: %v", res.MaxShare, res.Share)
	}
}

func TestTable2SingleProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("full method grid")
	}
	res := RunTable2(tinyScale(), []string{"femnist"})
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 method rows, got %d", len(res.Rows))
	}
	var ft, others []Table2Row
	for _, r := range res.Rows {
		if r.Method == "FedTrans" {
			ft = append(ft, r)
		} else {
			others = append(others, r)
		}
	}
	if len(ft) != 1 {
		t.Fatalf("expected 1 FedTrans row")
	}
	// Shape check: FedTrans should not cost more than every baseline.
	cheaperThanSome := false
	for _, o := range others {
		if ft[0].CostMACs < o.CostMACs {
			cheaperThanSome = true
		}
	}
	if !cheaperThanSome {
		t.Errorf("FedTrans cost %.3g not below any baseline", ft[0].CostMACs)
	}
	out := res.String()
	for _, want := range []string{"FedTrans", "HeteroFL", "SplitMix", "FLuID", "Accu.(%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
	if len(res.Curves) != 4 || len(res.PerClient) != 4 {
		t.Errorf("expected Figure 6/7 side outputs for 4 methods")
	}
}

// TestTable2DeltaSign pins the ΔAccu column: FedTrans's lead over each
// method, with ↑ when FedTrans leads and ↓ when it trails.
func TestTable2DeltaSign(t *testing.T) {
	res := Table2Result{Rows: []Table2Row{
		{Dataset: "d", Method: "FedTrans", Accuracy: 50, CostMACs: 1},
		{Dataset: "d", Method: "Ahead", Accuracy: 71.35, CostMACs: 1},
		{Dataset: "d", Method: "Behind", Accuracy: 37.5, CostMACs: 1},
	}}
	rows := map[string]string{}
	for _, line := range strings.Split(res.String(), "\n") {
		for _, m := range []string{"Ahead", "Behind"} {
			if strings.Contains(line, m) {
				rows[m] = line
			}
		}
	}
	if !strings.Contains(rows["Ahead"], "↓21.35") {
		t.Errorf("FedTrans trails by 21.35 points, row reads %q", rows["Ahead"])
	}
	if !strings.Contains(rows["Behind"], "↑12.50") {
		t.Errorf("FedTrans leads by 12.50 points, row reads %q", rows["Behind"])
	}
	if out := res.String(); strings.Contains(out, "↑-") || strings.Contains(out, "↓-") {
		t.Errorf("signed magnitude after the arrow:\n%s", out)
	}
}

func TestSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweep")
	}
	sc := Scale{Clients: 12, Rounds: 20, ClientsPerRound: 5, Seed: 2}
	res := RunFigure12(sc)
	if len(res.Points) != 5 {
		t.Fatalf("alpha sweep points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Accuracy <= 0 || p.CostMACs <= 0 {
			t.Errorf("degenerate sweep point %+v", p)
		}
	}
}

func TestTable5Overheads(t *testing.T) {
	res := RunTable5(tinyScale())
	if res.Overhead.DoCUpdates != int64(res.Rounds) {
		t.Errorf("DoC updates %d != rounds %d", res.Overhead.DoCUpdates, res.Rounds)
	}
	if res.Overhead.UtilityUpdates <= 0 {
		t.Error("no utility updates recorded")
	}
	if res.Overhead.UtilityUpdates > res.AnalyticUtilityOps {
		t.Errorf("measured utility updates %d exceed analytic bound %d",
			res.Overhead.UtilityUpdates, res.AnalyticUtilityOps)
	}
}

func TestTable6StragglerMitigation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	res := RunTable6(tinyScale())
	if res.FedTransMean <= 0 || res.FedAvgMean <= 0 {
		t.Fatalf("round times missing: %+v", res)
	}
	// The paper's Table 6 shape: FedTrans improves both mean and std of
	// round completion time over FedAvg.
	if res.FedTransMean >= res.FedAvgMean {
		t.Errorf("FedTrans round time %.2f not below FedAvg %.2f", res.FedTransMean, res.FedAvgMean)
	}
}
