package main

import (
	"math"
	"sort"
	"time"
)

// sortedMS returns the durations in milliseconds, ascending.
func sortedMS(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// meanMS is the mean of the durations in milliseconds.
func meanMS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(ds))
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the highest whole percentile p whose
// nearest-rank sample still has at least minBeyond samples above it in
// a sample of n, and returns p with that sample's 0-based index in the
// ascending order. Nearest rank k = ceil(p*n/100) leaves n-k samples
// beyond, so p is the largest integer with ceil(p*n/100) <= n-minBeyond.
// With n <= minBeyond no percentile qualifies and ok is false.
func tailPercentile(n, minBeyond int) (p, idx int, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	p = 100 * (n - minBeyond) / n
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return p, k - 1, true
}

// tail reports the tail statistic of the ascending samples: the value
// at the highest percentile with at least ten samples beyond it, that
// percentile, and the count of samples beyond it. A run too short to
// have such a percentile reports its maximum as p100 with no samples
// beyond.
func tail(asc []float64) (v float64, pct, beyond int) {
	p, idx, ok := tailPercentile(len(asc), 10)
	if !ok {
		if len(asc) == 0 {
			return 0, 0, 0
		}
		return asc[len(asc)-1], 100, 0
	}
	return asc[idx], p, len(asc) - 1 - idx
}

// tally counts attempted and failed iterations. An iteration fails when
// any output check made on it fails; a failed end-of-run check counts
// as one more failed attempt, so fail_frac can never read 0 while
// correct reads false.
type tally struct {
	attempted, failed int
	firstErr          error
}

// iter records one iteration with the errors of its output checks.
func (t *tally) iter(errs ...error) {
	t.attempted++
	for _, err := range errs {
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			return
		}
	}
}

// final records an end-of-run check.
func (t *tally) final(err error) { t.iter(err) }

// failFrac is failed / attempted (0 when nothing ran).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// perStepMS converts an exclusive time summed over ranks and steps into
// milliseconds per step per rank.
func perStepMS(totalNS int64, ranks, steps int) float64 {
	if ranks <= 0 || steps <= 0 {
		return 0
	}
	return float64(totalNS) / 1e6 / float64(ranks) / float64(steps)
}

// unattributedFrac is the share of a measured iteration that the
// attributed layer times do not account for: 1 - sum(layers)/iter. It
// is reported as measured, so a negative value (layers summing past the
// iteration, e.g. a replay slower than the live step) stays visible.
func unattributedFrac(iterMS float64, layersMS ...float64) float64 {
	if iterMS <= 0 {
		return math.NaN()
	}
	var sum float64
	for _, l := range layersMS {
		sum += l
	}
	return 1 - sum/iterMS
}

// skew is slowest / fastest of the per-rank busy times (1 for a
// balanced or single-rank world, 0 when no rank was busy).
func skew(busy []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, b := range busy {
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
	}
	if hi == 0 || lo <= 0 {
		return 0
	}
	return hi / lo
}
