package numeric

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics helpers that require at least one
// sample.
var ErrEmpty = errors.New("numeric: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs and its index, or (-Inf, -1) for an empty
// slice.
func Max(xs []float64) (float64, int) {
	best, at := math.Inf(-1), -1
	for i, v := range xs {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Min returns the minimum of xs and its index, or (+Inf, -1) for an empty
// slice.
func Min(xs []float64) (float64, int) {
	best, at := math.Inf(1), -1
	for i, v := range xs {
		if v < best {
			best, at = v, i
		}
	}
	return best, at
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("numeric: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// MeanAbsError returns the mean absolute difference between two
// equal-length series. This is the metric the paper uses for Fig. 4 (c)
// ("mean difference of 0.22 degC").
func MeanAbsError(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("numeric: MeanAbsError length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p), nil
}

// PercentileSorted is Percentile over a sample already sorted ascending,
// so callers reading several percentiles sort once. sorted must not be
// empty.
func PercentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// StdDev returns the population standard deviation of xs, or 0 for fewer
// than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Correlation returns the Pearson correlation coefficient between two
// equal-length series; used by the Fig. 4 validation ("strong correlation
// between the real measurements and Icepak simulation").
func Correlation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("numeric: correlation length mismatch")
	}
	if len(a) < 2 {
		return 0, ErrEmpty
	}
	ma, mb := Mean(a), Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0, errors.New("numeric: correlation undefined for constant series")
	}
	return num / math.Sqrt(da*db), nil
}
