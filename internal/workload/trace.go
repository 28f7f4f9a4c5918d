// Package workload synthesizes the two-day Google datacenter trace the
// paper evaluates on (Figure 10): Web Search, Social Networking (Orkut)
// and MapReduce job streams from November 17-18 2010, normalized to a 50%
// average and 95% peak load for a 1008-server cluster.
//
// The original trace came from Google's Transparency Report via Kontorinis
// et al. and is no longer published; this generator reproduces its
// documented structure — a strong midday search peak, an evening social
// peak, an overnight batch component, and the 50%/95% normalization — with
// a seeded, reproducible synthesis.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// JobType identifies one of the trace's three job classes.
type JobType int

const (
	Search JobType = iota
	Orkut
	MapReduce
)

// JobTypes lists all classes in presentation order.
var JobTypes = []JobType{Search, Orkut, MapReduce}

// String implements fmt.Stringer.
func (j JobType) String() string {
	switch j {
	case Search:
		return "Web Search"
	case Orkut:
		return "Orkut"
	case MapReduce:
		return "MapReduce"
	default:
		return fmt.Sprintf("JobType(%d)", int(j))
	}
}

// Trace is a normalized datacenter load trace: per-class utilization
// series plus their total, all on the same time grid. Values are fractions
// of cluster capacity in [0, 1].
type Trace struct {
	PerType map[JobType]*timeseries.Series
	Total   *timeseries.Series
}

// Options configures the generator.
type Options struct {
	// Days is the trace length; the paper uses 2.
	Days int
	// StepS is the sampling interval in seconds (default 300).
	StepS float64
	// Seed drives the reproducible jitter.
	Seed int64
	// MeanUtil and PeakUtil set the normalization (paper: 0.50 and 0.95).
	MeanUtil, PeakUtil float64
	// NoiseAmp is the relative amplitude of the short-term jitter
	// (default 0.015).
	NoiseAmp float64
	// PeakSharpness scales the diurnal bump widths: 1 reproduces the
	// default shapes, >1 narrows the peaks, <1 broadens them. Used by the
	// sensitivity study on how the wax payoff depends on peak width.
	PeakSharpness float64
	// WeekendDamping scales down the interactive classes (Search, Orkut)
	// on days 6 and 7 of each week, in [0, 0.9]; batch MapReduce traffic
	// is unaffected. Zero (the default, and the paper's two-weekday
	// trace) applies no weekend effect.
	WeekendDamping float64
	// Obs is the optional telemetry registry: generation is timed as a
	// span and the resulting trace's normalization is recorded as gauges.
	Obs *obs.Registry
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{Days: 2, StepS: 300, Seed: 1711, MeanUtil: 0.50, PeakUtil: 0.95, NoiseAmp: 0.015}
}

// shape returns the raw (unnormalized) diurnal intensity of a job class at
// hour-of-day h in [0, 24), with the bump widths divided by sharpness.
func shape(j JobType, h, sharpness float64) float64 {
	bump := func(center, width float64) float64 {
		width /= sharpness
		// Wrapped Gaussian: consider the nearest periodic image.
		d := math.Mod(h-center+36, 24) - 12
		return math.Exp(-d * d / (2 * width * width))
	}
	switch j {
	case Search:
		// Broad working-day hump peaking early afternoon, with a sharper
		// midday crest that gives the total its pointed peak.
		return 0.06 + 0.80*bump(13.5, 2.6) + 0.45*bump(13.0, 1.2)
	case Orkut:
		// Social traffic peaks in the evening and has a higher floor.
		return 0.12 + 0.80*bump(19.5, 2.8) + 0.15*bump(13.0, 2.5)
	case MapReduce:
		// Batch work is scheduled into the night trough with a flat floor.
		return 0.30 + 0.25*bump(2.5, 3.0) + 0.10*bump(23.0, 2.0)
	default:
		return 0
	}
}

// classWeight is each class's share of total cluster load.
func classWeight(j JobType) float64 {
	switch j {
	case Search:
		return 0.48
	case Orkut:
		return 0.30
	case MapReduce:
		return 0.22
	default:
		return 0
	}
}

// Generate synthesizes a trace.
func Generate(opts Options) (*Trace, error) { return generate(opts, bisectGamma) }

// generate is Generate with the normalization exponent's solver passed
// in, so the tests can run the fixed-iteration oracle through the same
// path.
func generate(opts Options, solve func(meanAt func(float64) float64, target, lo, hi float64) float64) (*Trace, error) {
	if opts.Days <= 0 {
		return nil, fmt.Errorf("workload: non-positive day count %d", opts.Days)
	}
	sp := opts.Obs.StartSpan("workload.generate")
	sp.AddSimTime(float64(opts.Days) * units.Day)
	defer sp.End()
	if opts.StepS <= 0 {
		opts.StepS = 300
	}
	if opts.MeanUtil <= 0 || opts.PeakUtil <= opts.MeanUtil || opts.PeakUtil > 1 {
		return nil, fmt.Errorf("workload: bad normalization mean=%v peak=%v", opts.MeanUtil, opts.PeakUtil)
	}
	if opts.NoiseAmp < 0 || opts.NoiseAmp > 0.2 {
		return nil, fmt.Errorf("workload: noise amplitude %v outside [0, 0.2]", opts.NoiseAmp)
	}
	if opts.WeekendDamping < 0 || opts.WeekendDamping > 0.9 {
		return nil, fmt.Errorf("workload: weekend damping %v outside [0, 0.9]", opts.WeekendDamping)
	}
	sharp := opts.PeakSharpness
	if sharp == 0 {
		sharp = 1
	}
	if sharp < 0.3 || sharp > 3 {
		return nil, fmt.Errorf("workload: peak sharpness %v outside [0.3, 3]", sharp)
	}
	n := int(float64(opts.Days) * units.Day / opts.StepS)
	rng := rand.New(rand.NewSource(opts.Seed))

	perType := make(map[JobType][]float64, len(JobTypes))
	for _, j := range JobTypes {
		perType[j] = make([]float64, n)
	}
	total := make([]float64, n)

	// AR(1) jitter per class keeps the noise smooth at 5-minute steps.
	// The stationary std of x' = ar*x + (1-ar)*N(0,1) is
	// sqrt((1-ar)/(1+ar)); dividing by it makes the jitter unit-variance
	// so NoiseAmp is the actual relative amplitude.
	jitter := map[JobType]float64{}
	const ar = 0.85
	jitterStd := math.Sqrt((1 - ar) / (1 + ar))
	for i := 0; i < n; i++ {
		t := float64(i) * opts.StepS
		h := math.Mod(t/units.Hour, 24)
		weekend := int(t/units.Day)%7 >= 5
		for _, j := range JobTypes {
			jitter[j] = ar*jitter[j] + (1-ar)*rng.NormFloat64()
			raw := shape(j, h, sharp) * (1 + opts.NoiseAmp*jitter[j]/jitterStd)
			// Keep jitter bounded and the load physical.
			if raw < 0 {
				raw = 0
			}
			if weekend && j != MapReduce {
				raw *= 1 - opts.WeekendDamping
			}
			v := classWeight(j) * raw
			perType[j][i] = v
			total[i] += v
		}
	}

	// Normalize the total to the target mean and peak with a power law
	// u = a * raw^gamma: positivity-preserving and shape-preserving (an
	// affine map cannot reach a 1.9x peak-to-mean ratio without negative
	// troughs). gamma is found by bisection; a then pins the peak.
	rawPeak := max(total)
	if rawPeak <= 0 {
		return nil, fmt.Errorf("workload: degenerate raw trace")
	}
	meanAt := func(gamma float64) float64 {
		s := 0.0
		for _, v := range total {
			s += math.Pow(v/rawPeak, gamma)
		}
		return opts.PeakUtil * s / float64(len(total))
	}
	lo, hi := 0.05, 12.0
	if meanAt(lo) < opts.MeanUtil || meanAt(hi) > opts.MeanUtil {
		return nil, fmt.Errorf("workload: normalization target mean=%v peak=%v unreachable", opts.MeanUtil, opts.PeakUtil)
	}
	gamma := solve(meanAt, opts.MeanUtil, lo, hi)
	for i := range total {
		newTotal := opts.PeakUtil * math.Pow(total[i]/rawPeak, gamma)
		// Rescale classes proportionally so they still stack to the total.
		ratio := newTotal / total[i]
		for _, j := range JobTypes {
			perType[j][i] *= ratio
		}
		total[i] = newTotal
	}

	tr := &Trace{PerType: make(map[JobType]*timeseries.Series, len(JobTypes))}
	var err error
	if tr.Total, err = timeseries.FromValues(0, opts.StepS, total); err != nil {
		return nil, err
	}
	for _, j := range JobTypes {
		if tr.PerType[j], err = timeseries.FromValues(0, opts.StepS, perType[j]); err != nil {
			return nil, err
		}
	}
	opts.Obs.Counter("workload.traces_generated").Inc()
	Observe(tr, opts.Obs)
	return tr, nil
}

// bisectGamma finds the exponent where the decreasing meanAt crosses
// target, bisecting [lo, hi] for at most 80 iterations. Once an iteration
// leaves the bracket unchanged every later one repeats it exactly, so it
// stops there with the bit-identical answer (after ~57 on the paper trace).
func bisectGamma(meanAt func(float64) float64, target, lo, hi float64) float64 {
	gamma := lo
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		prevLo, prevHi := lo, hi
		if meanAt(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		gamma = (lo + hi) / 2
		if lo == prevLo && hi == prevHi {
			break
		}
	}
	return gamma
}

// Observe records a trace's headline statistics (sample count, peak and
// mean utilization) as gauges; a nil registry or trace is a no-op.
func Observe(tr *Trace, reg *obs.Registry) {
	if tr == nil || tr.Total == nil || reg == nil {
		return
	}
	reg.Gauge("workload.trace_samples").Set(float64(tr.Total.Len()))
	p, _ := tr.Total.Peak()
	reg.Gauge("workload.trace_peak_util").Set(p)
	reg.Gauge("workload.trace_mean_util").Set(tr.Total.Mean())
}

// GoogleTwoDay returns the paper's two-day evaluation trace with default
// options.
func GoogleTwoDay() *Trace {
	tr, err := Generate(DefaultOptions())
	if err != nil {
		// DefaultOptions is static and valid; a failure is a programming
		// error.
		panic(err)
	}
	return tr
}

// UtilizationAt returns total cluster utilization at time t (seconds).
func (tr *Trace) UtilizationAt(t float64) float64 { return tr.Total.At(t) }

// Validate checks the stack property (classes sum to the total) and range.
func (tr *Trace) Validate() error {
	if tr.Total == nil || len(tr.PerType) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	for i, v := range tr.Total.Values {
		if v < 0 || v > 1 {
			return fmt.Errorf("workload: total utilization %v out of range at sample %d", v, i)
		}
		sum := 0.0
		for _, j := range JobTypes {
			sum += tr.PerType[j].Values[i]
		}
		if math.Abs(sum-v) > 1e-9 {
			return fmt.Errorf("workload: classes sum to %v but total is %v at sample %d", sum, v, i)
		}
	}
	return nil
}

func max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// WithFlashCrowd returns a copy of the trace with an unplanned load surge:
// a multiplicative boost over [atHour, atHour+durationH) on the first day,
// clamped at full capacity. The result deliberately breaks the 50%/95%
// normalization — that is the scenario (a surprise the cooling system was
// not provisioned for).
func (tr *Trace) WithFlashCrowd(atHour, durationH, boost float64) (*Trace, error) {
	if durationH <= 0 || boost <= 0 {
		return nil, fmt.Errorf("workload: flash crowd needs positive duration and boost")
	}
	out := &Trace{
		Total:   tr.Total.Clone(),
		PerType: make(map[JobType]*timeseries.Series, len(tr.PerType)),
	}
	for j, s := range tr.PerType {
		out.PerType[j] = s.Clone()
	}
	for i := range out.Total.Values {
		h := out.Total.TimeAt(i) / units.Hour
		if h < atHour || h >= atHour+durationH {
			continue
		}
		boosted := out.Total.Values[i] * (1 + boost)
		if boosted > 1 {
			boosted = 1
		}
		ratio := 1.0
		if out.Total.Values[i] > 0 {
			ratio = boosted / out.Total.Values[i]
		}
		out.Total.Values[i] = boosted
		for _, j := range JobTypes {
			out.PerType[j].Values[i] *= ratio
		}
	}
	return out, nil
}

// DeferBatch returns a copy of the trace with MapReduce work moved out of
// the daily [fromHour, toHour) window and replayed in the overnight trough
// (hours 0-6), subject to the capacity ceiling. This is the workload-
// shifting alternative to thermal storage (the demand-response literature
// the paper cites): batch jobs tolerate deferral, interactive ones do not.
// Total MapReduce energy is conserved up to the ceiling clamp.
func (tr *Trace) DeferBatch(fromHour, toHour float64) (*Trace, error) {
	if toHour <= fromHour {
		return nil, fmt.Errorf("workload: empty deferral window [%v, %v)", fromHour, toHour)
	}
	out := &Trace{
		Total:   tr.Total.Clone(),
		PerType: make(map[JobType]*timeseries.Series, len(tr.PerType)),
	}
	for j, s := range tr.PerType {
		out.PerType[j] = s.Clone()
	}
	mr := out.PerType[MapReduce]
	total := out.Total

	// Pass 1: remove MapReduce load inside the window, accumulating the
	// deferred mass per day.
	days := int(total.End()/units.Day + 0.5)
	deferred := make([]float64, days+1)
	for i := range total.Values {
		t := total.TimeAt(i)
		h := math.Mod(t/units.Hour, 24)
		if h < fromHour || h >= toHour {
			continue
		}
		d := int(t / units.Day)
		deferred[d] += mr.Values[i]
		total.Values[i] -= mr.Values[i]
		mr.Values[i] = 0
	}
	// Pass 2: replay each day's deferred mass after its own window closes
	// (the evening of the same day, then the following night up to 6 am),
	// capped so the replay never creates a new peak: the ceiling is the
	// highest total remaining anywhere after the removal.
	_ = days
	ceiling, _ := total.Peak()
	for i := range total.Values {
		t := total.TimeAt(i)
		h := math.Mod(t/units.Hour, 24)
		var d int
		switch {
		case h >= toHour:
			d = int(t / units.Day) // same evening
		case h < 6:
			d = int(t/units.Day) - 1 // following night
		default:
			continue
		}
		if d < 0 || d >= len(deferred) || deferred[d] <= 0 {
			continue
		}
		room := ceiling - total.Values[i]
		if room <= 0 {
			continue
		}
		add := math.Min(room, deferred[d])
		deferred[d] -= add
		total.Values[i] += add
		mr.Values[i] += add
	}
	return out, nil
}
