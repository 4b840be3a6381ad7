// Package stats provides the statistical machinery used by the INRPP
// experiment harnesses: streaming summaries, percentiles, empirical CDFs,
// Jain's fairness index and time-weighted averages.
//
// Everything is deterministic and allocation-light so it can run inside the
// simulators' hot loops.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of observations using Welford's online
// algorithm. The zero value is an empty summary ready for use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records a single observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds other into s, as if every observation of other had been Added
// to s directly (Chan et al. parallel variance update).
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	nA, nB := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := nA + nB
	s.m2 += other.m2 + delta*delta*nA*nB/total
	s.mean += delta * nB / total
	s.sum += other.sum
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N returns the number of observations.
func (s Summary) N() int { return s.n }

// Sum returns the sum of all observations.
func (s Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or zero for an empty summary.
func (s Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or zero for an empty summary.
func (s Summary) Min() float64 { return s.min }

// Max returns the largest observation, or zero for an empty summary.
func (s Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, or zero when fewer than
// two observations have been recorded.
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s Summary) Std() float64 { return math.Sqrt(s.Variance()) }

// String renders a compact human-readable digest.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It copies and sorts its input; use
// PercentileSorted in hot paths. An empty input yields zero.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// JainIndex computes Jain's fairness index F = (Σx)² / (n·Σx²) over the
// throughputs xs. It is 1 for a perfectly equal allocation and approaches
// 1/n as a single entry dominates. Empty or all-zero inputs yield zero.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// TimeWeighted integrates a piecewise-constant signal over time, yielding
// its time-weighted mean — the right way to average link utilisation or
// cache occupancy across irregular simulation events.
type TimeWeighted struct {
	started bool
	start   float64
	lastT   float64
	lastV   float64
	area    float64
	peak    float64
}

// Observe records that the signal changed to value v at time t. Times must
// be non-decreasing.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.start = t
		tw.peak = v
	} else {
		tw.area += tw.lastV * (t - tw.lastT)
	}
	if v > tw.peak {
		tw.peak = v
	}
	tw.lastT = t
	tw.lastV = v
}

// MeanAt returns the time-weighted mean of the signal over [start, t].
func (tw *TimeWeighted) MeanAt(t float64) float64 {
	if !tw.started || t <= tw.start {
		return 0
	}
	area := tw.area + tw.lastV*(t-tw.lastT)
	return area / (t - tw.start)
}

// Peak returns the largest value observed so far.
func (tw *TimeWeighted) Peak() float64 { return tw.peak }

// Last returns the most recently observed value.
func (tw *TimeWeighted) Last() float64 { return tw.lastV }
