package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsSupportedTailAndCount(t *testing.T) {
	mk := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i+1) * time.Microsecond
		}
		return ds
	}
	s := summarizeMicros(mk(500))
	if s.n != 500 || s.tailP != 90 || s.tail != 450 || s.p50 != 250 {
		t.Errorf("500 samples: got %+v, want n 500, p90 = 450us, p50 = 250us", s)
	}
	// p99.9 is supported by 20000 samples, but the metrics are named
	// p99, so the tail stops there.
	s = summarizeMicros(mk(20000))
	if s.tailP != 99 || s.tail != 19800 {
		t.Errorf("20000 samples: got p%g = %g, want p99 = 19800", s.tailP, s.tail)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestCoverageMergesOverlaps(t *testing.T) {
	us := time.Microsecond
	iv := [][2]time.Duration{{10 * us, 20 * us}, {0, 5 * us}, {15 * us, 30 * us}, {40 * us, 50 * us}}
	if got := coverage(iv); got != 35*us {
		t.Errorf("coverage = %v, want 35us", got)
	}
}
