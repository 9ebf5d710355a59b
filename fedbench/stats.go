package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentile returns the highest of the reported percentiles (p50,
// p90, p99, p99.9) that has at least ten of n samples beyond it, the rule
// every tail latency in this benchmark follows. It returns 0 when even
// the median is unsupported (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of sorted (ascending) samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of unsorted samples; the input is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return percentile(s, 50)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is a timing distribution reduced by the tail rule: the
// median, the tail percentile the sample count supports (at most p99, the
// tail every metric here is named after), and that count.
type latencySummary struct {
	n         int
	p50, tail float64 // microseconds
	tailP     float64
}

func summarizeMicros(ds []time.Duration) latencySummary {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	p := math.Min(tailPercentile(len(us)), 99)
	return latencySummary{n: len(us), p50: percentile(us, 50), tail: percentile(us, p), tailP: p}
}

// coverage is the total length of the union of the intervals [s, e).
func coverage(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// timePerCall returns the median time of f in microseconds over several
// calls after one untimed warm-up: nine calls, or as many as fit in about
// a third of a second, but at least three.
func timePerCall(f func()) float64 {
	f()
	var xs []float64
	start := time.Now()
	for len(xs) < 3 || (len(xs) < 9 && time.Since(start) < 300*time.Millisecond) {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(xs)
}
