package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bisectGammaSlow is the oracle for bisectGamma: the original solver,
// which always runs all 80 iterations.
func bisectGammaSlow(meanAt func(float64) float64, target, lo, hi float64) float64 {
	gamma := lo
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if meanAt(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		gamma = (lo + hi) / 2
	}
	return gamma
}

// generateSlow is Generate driven by the 80-iteration oracle.
func generateSlow(opts Options) (*Trace, error) { return generate(opts, bisectGammaSlow) }

// sameTraceBits fails t unless the two traces' Total and PerType series
// are Float64bits-identical.
func sameTraceBits(t *testing.T, label string, got, want *Trace) {
	t.Helper()
	same := func(series string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d, oracle %d", label, series, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, oracle %v", label, series, i, a[i], b[i])
			}
		}
	}
	same("Total", got.Total.Values, want.Total.Values)
	if len(got.PerType) != len(want.PerType) {
		t.Fatalf("%s: %d per-type series, oracle %d", label, len(got.PerType), len(want.PerType))
	}
	for j, s := range want.PerType {
		g, ok := got.PerType[j]
		if !ok {
			t.Fatalf("%s: %v series missing", label, j)
		}
		same(j.String(), g.Values, s.Values)
	}
}

// TestBisectEarlyStopMatchesOracle pins the converged-bracket early stop
// to the fixed 80-iteration bisection, bit for bit, on the paper's
// options and a seeded sweep over mean, peak, sharpness and damping.
func TestBisectEarlyStopMatchesOracle(t *testing.T) {
	cases := []Options{DefaultOptions()}
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < 40; i++ {
		o := DefaultOptions()
		o.Days = 1 + rng.Intn(7)
		o.Seed = rng.Int63()
		o.MeanUtil = 0.2 + 0.5*rng.Float64()
		o.PeakUtil = o.MeanUtil + (1-o.MeanUtil)*(0.05+0.95*rng.Float64())
		o.PeakSharpness = 0.3 + 2.7*rng.Float64()
		o.WeekendDamping = 0.9 * rng.Float64()
		cases = append(cases, o)
	}
	solved := 0
	for i, o := range cases {
		fast, errFast := Generate(o)
		slow, errSlow := generateSlow(o)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("case %d %+v: early stop err %v, oracle err %v", i, o, errFast, errSlow)
		}
		if errSlow != nil {
			continue
		}
		solved++
		sameTraceBits(t, fmt.Sprintf("case %d", i), fast, slow)
	}
	if solved < len(cases)/2 {
		t.Fatalf("only %d of %d sweep cases reach their normalization target; the sweep proves little", solved, len(cases))
	}
}

// TestBisectStopsEarly guards the saving: on a smooth decreasing mean
// curve the bracket converges well before the 80-iteration cap.
func TestBisectStopsEarly(t *testing.T) {
	calls := 0
	meanAt := func(g float64) float64 { calls++; return math.Exp(-g) }
	bisectGamma(meanAt, 0.3, 0.05, 12)
	if calls >= 80 {
		t.Errorf("bisectGamma evaluated meanAt %d times; the converged bracket should stop it early", calls)
	}
}
