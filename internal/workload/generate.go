package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// This file generalizes the single hard-coded Google trace into a
// composable generator: a named base pattern (the paper's diurnal day, a
// weekly variant with damped weekends, a flat floor, or a replayed sample
// trace) onto which ramped spikes, flash-crowd surges and seasonal
// envelopes are stacked additively or multiplicatively, in order. The
// result is always normalized back into [0, 1] — utilization is a
// fraction of cluster capacity and the ceiling is physical — and is fully
// deterministic: the same GenSpec (including its seed) builds the same
// trace bit for bit, regardless of who runs it or how many fleet workers
// later step it.

// Pattern names a base load shape.
type Pattern uint8

const (
	// PatternDiurnal is the paper's two-peak Google day (Figure 10).
	PatternDiurnal Pattern = iota
	// PatternWeekly is the diurnal day with interactive traffic damped on
	// days 6 and 7 of each week (WeekendDamping; 0 selects 0.35).
	PatternWeekly
	// PatternFlat is a constant MeanUtil floor (plus jitter) — the
	// blank canvas for pure spike/surge scenarios.
	PatternFlat
	// PatternTrace replays the spec's Samples, resampled onto the epoch
	// grid by linear interpolation — the CSV-replay path.
	PatternTrace
)

// patternNames maps patterns to their scenario-format spellings.
var patternNames = map[Pattern]string{
	PatternDiurnal: "diurnal",
	PatternWeekly:  "weekly",
	PatternFlat:    "flat",
	PatternTrace:   "trace",
}

// String implements fmt.Stringer with the scenario-format spelling.
func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern resolves a scenario spelling to its Pattern.
func ParsePattern(name string) (Pattern, error) {
	for p, n := range patternNames {
		if n == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown pattern %q (want diurnal, weekly, flat or trace)", name)
}

// Op selects how a component combines with the trace built so far.
type Op uint8

const (
	// OpAdd adds the component's excursion to the utilization.
	OpAdd Op = iota
	// OpMul scales the utilization by the component's factor.
	OpMul
)

// String returns the scenario-format spelling.
func (o Op) String() string {
	if o == OpMul {
		return "mul"
	}
	return "add"
}

// CompKind enumerates the component shapes.
type CompKind uint8

const (
	// CompSpike is a ramping spike: linear ramp-up over RampS, hold at
	// peak for HoldS, then a sharp release (a load balancer cutting a
	// misrouted flood, a batch job killed at its deadline).
	CompSpike CompKind = iota
	// CompSurge is a flash crowd: a raised-cosine swell over RampS, hold
	// for HoldS, and a mirrored subsidence over RampS again.
	CompSurge
	// CompSeason is a sinusoidal envelope of period PeriodS and relative
	// amplitude Value (quarterly campaigns, summer troughs).
	CompSeason
)

// compKindNames maps kinds to their scenario-format spellings.
var compKindNames = map[CompKind]string{
	CompSpike:  "spike",
	CompSurge:  "surge",
	CompSeason: "season",
}

// String returns the scenario-format spelling.
func (k CompKind) String() string {
	if s, ok := compKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("CompKind(%d)", int(k))
}

// Component is one composable excursion on top of the base pattern.
// Components apply in slice order, each to the trace the previous ones
// produced.
type Component struct {
	Op   Op
	Kind CompKind
	// AtS is when the excursion begins (spike and surge).
	AtS float64
	// RampS is the ramp length: spike ramps up over it, surge swells in
	// and subsides out over it on each side.
	RampS float64
	// HoldS is the dwell at full amplitude.
	HoldS float64
	// Value is the amplitude: for OpAdd the utilization added at peak
	// (in [-1, 1]); for an OpMul spike or surge the peak factor (> 0,
	// 1.3 = a 30% crowd, 0.5 = half the load); for a season the relative
	// amplitude of the envelope (in [-1, 1], factor = 1 + Value*sin).
	Value float64
	// PeriodS is the seasonal period (CompSeason only).
	PeriodS float64
}

// validate checks one component in isolation.
func (c Component) validate() error {
	switch c.Kind {
	case CompSpike, CompSurge:
		if c.AtS < 0 {
			return fmt.Errorf("workload: %s %s at negative time %gs", c.Op, c.Kind, c.AtS)
		}
		if c.RampS < 0 || c.HoldS < 0 || c.RampS+c.HoldS <= 0 {
			return fmt.Errorf("workload: %s %s needs a positive ramp or hold (ramp %gs, hold %gs)",
				c.Op, c.Kind, c.RampS, c.HoldS)
		}
	case CompSeason:
		if c.PeriodS <= 0 {
			return fmt.Errorf("workload: season period %gs must be positive", c.PeriodS)
		}
	default:
		return fmt.Errorf("workload: unknown component kind %d", int(c.Kind))
	}
	switch {
	case c.Op == OpAdd || c.Kind == CompSeason:
		if c.Value < -1 || c.Value > 1 || c.Value == 0 {
			return fmt.Errorf("workload: %s %s amplitude %g outside [-1, 1] (or zero)", c.Op, c.Kind, c.Value)
		}
	case c.Op == OpMul:
		if c.Value <= 0 {
			return fmt.Errorf("workload: %s %s factor %g must be positive", c.Op, c.Kind, c.Value)
		}
	default:
		return fmt.Errorf("workload: unknown component op %d", int(c.Op))
	}
	return nil
}

// shapeAt returns the component's normalized excursion at time t: in
// [0, 1] for spikes and surges, in [-1, 1] for seasons.
func (c Component) shapeAt(t float64) float64 {
	switch c.Kind {
	case CompSpike:
		switch {
		case t < c.AtS || t >= c.AtS+c.RampS+c.HoldS:
			return 0
		case t < c.AtS+c.RampS:
			return (t - c.AtS) / c.RampS
		default:
			return 1
		}
	case CompSurge:
		rel := t - c.AtS
		switch {
		case rel < 0 || rel >= 2*c.RampS+c.HoldS:
			return 0
		case rel < c.RampS:
			return 0.5 * (1 - math.Cos(math.Pi*rel/c.RampS))
		case rel < c.RampS+c.HoldS:
			return 1
		default:
			return 0.5 * (1 - math.Cos(math.Pi*(2*c.RampS+c.HoldS-rel)/c.RampS))
		}
	case CompSeason:
		return math.Sin(2 * math.Pi * t / c.PeriodS)
	default:
		return 0
	}
}

// applyTo returns the utilization after this component acts on v at t.
func (c Component) applyTo(v, t float64) float64 {
	shape := c.shapeAt(t)
	if c.Op == OpAdd {
		return v + c.Value*shape
	}
	if c.Kind == CompSeason {
		return v * (1 + c.Value*shape)
	}
	return v * (1 + (c.Value-1)*shape)
}

// Sample is one control point of a replayed trace: utilization Util at
// time AtS seconds.
type Sample struct {
	AtS  float64
	Util float64
}

// GenSpec is the full description of a generated workload: a base
// pattern, its normalization, and the component stack. Equal specs build
// bit-identical traces.
type GenSpec struct {
	Pattern Pattern
	// Days and StepS fix the epoch grid (defaults 2 and 300).
	Days  int
	StepS float64
	// Seed drives the reproducible jitter.
	Seed int64
	// MeanUtil and PeakUtil normalize the diurnal/weekly base (paper:
	// 0.50 and 0.95); flat uses MeanUtil alone; trace ignores both.
	MeanUtil, PeakUtil float64
	// NoiseAmp, PeakSharpness and WeekendDamping tune the base pattern
	// exactly as Options does.
	NoiseAmp       float64
	PeakSharpness  float64
	WeekendDamping float64
	// Samples are the control points replayed by PatternTrace, in
	// non-decreasing time order.
	Samples []Sample
	// Components stack on the base in slice order.
	Components []Component
}

// DefaultGenSpec is the paper's two-day diurnal trace as a GenSpec.
func DefaultGenSpec() GenSpec {
	return GenSpec{
		Pattern:       PatternDiurnal,
		Days:          2,
		StepS:         300,
		Seed:          1711,
		MeanUtil:      0.50,
		PeakUtil:      0.95,
		NoiseAmp:      0.015,
		PeakSharpness: 1,
	}
}

// Build synthesizes the trace the spec describes.
func (g GenSpec) Build() (*Trace, error) {
	if g.Days <= 0 {
		g.Days = 2
	}
	if g.StepS <= 0 {
		g.StepS = 300
	}
	for _, c := range g.Components {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}

	var tr *Trace
	var err error
	switch g.Pattern {
	case PatternDiurnal, PatternWeekly:
		tr, err = Generate(g.baseOptions())
	case PatternFlat:
		tr, err = g.buildFlat()
	case PatternTrace:
		tr, err = g.buildReplay()
	default:
		return nil, fmt.Errorf("workload: unknown pattern %d", int(g.Pattern))
	}
	if err != nil {
		return nil, err
	}

	total := tr.Total
	for i := range total.Values {
		t := total.TimeAt(i)
		v := total.Values[i]
		for _, c := range g.Components {
			v = c.applyTo(v, t)
		}
		// Normalize: utilization is a capacity fraction, so the composed
		// stack clamps into [0, 1] — a surge past full capacity saturates
		// the cluster, it cannot overdrive it.
		if v > 1 {
			v = 1
		}
		if v < 0 {
			v = 0
		}
		ratio := 1.0
		if total.Values[i] > 0 {
			ratio = v / total.Values[i]
		}
		total.Values[i] = v
		for _, j := range JobTypes {
			if s := tr.PerType[j]; s != nil {
				s.Values[i] *= ratio
			}
		}
	}
	return tr, nil
}

// baseOptions maps a diurnal or weekly spec (Days and StepS already
// defaulted) onto the generator's options; weekly defaults its weekend
// damping to 0.35.
func (g GenSpec) baseOptions() Options {
	damping := g.WeekendDamping
	if g.Pattern == PatternWeekly && damping == 0 {
		damping = 0.35
	}
	return Options{
		Days: g.Days, StepS: g.StepS, Seed: g.Seed,
		MeanUtil: g.MeanUtil, PeakUtil: g.PeakUtil,
		NoiseAmp: g.NoiseAmp, PeakSharpness: g.PeakSharpness,
		WeekendDamping: damping,
	}
}

// buildFlat synthesizes the constant-floor pattern: MeanUtil everywhere
// plus the usual AR(1) jitter, clamped physical.
func (g GenSpec) buildFlat() (*Trace, error) {
	if g.MeanUtil <= 0 || g.MeanUtil > 1 {
		return nil, fmt.Errorf("workload: flat level %v outside (0, 1]", g.MeanUtil)
	}
	if g.NoiseAmp < 0 || g.NoiseAmp > 0.2 {
		return nil, fmt.Errorf("workload: noise amplitude %v outside [0, 0.2]", g.NoiseAmp)
	}
	n := int(float64(g.Days) * units.Day / g.StepS)
	rng := rand.New(rand.NewSource(g.Seed))
	const ar = 0.85
	jitterStd := math.Sqrt((1 - ar) / (1 + ar))
	jitter := 0.0
	values := make([]float64, n)
	for i := range values {
		jitter = ar*jitter + (1-ar)*rng.NormFloat64()
		v := g.MeanUtil * (1 + g.NoiseAmp*jitter/jitterStd)
		values[i] = math.Min(1, math.Max(0, v))
	}
	return traceFromTotal(0, g.StepS, values)
}

// buildReplay resamples the spec's control points onto the epoch grid by
// linear interpolation, held flat before the first and after the last
// sample — the same path CSV-ingested traces take.
func (g GenSpec) buildReplay() (*Trace, error) {
	if err := ValidateSamples(g.Samples); err != nil {
		return nil, err
	}
	n := int(float64(g.Days) * units.Day / g.StepS)
	values := make([]float64, n)
	k := 0
	for i := range values {
		t := float64(i) * g.StepS
		for k+1 < len(g.Samples) && g.Samples[k+1].AtS <= t {
			k++
		}
		values[i] = interpSample(g.Samples, k, t)
	}
	return traceFromTotal(0, g.StepS, values)
}

// interpSample evaluates the piecewise-linear sample train at time t,
// where k indexes the last sample at or before t (clamped to the ends).
func interpSample(samples []Sample, k int, t float64) float64 {
	a := samples[k]
	if t <= a.AtS || k+1 >= len(samples) {
		return a.Util
	}
	b := samples[k+1]
	if b.AtS <= a.AtS {
		return b.Util
	}
	frac := (t - a.AtS) / (b.AtS - a.AtS)
	return a.Util + frac*(b.Util-a.Util)
}

// ValidateSamples checks a replay sample train: at least two points, in
// non-decreasing time order, utilizations in [0, 1].
func ValidateSamples(samples []Sample) error {
	if len(samples) < 2 {
		return fmt.Errorf("workload: trace replay needs at least two samples, have %d", len(samples))
	}
	for i, s := range samples {
		if s.AtS < 0 {
			return fmt.Errorf("workload: sample %d at negative time %gs", i, s.AtS)
		}
		if i > 0 && s.AtS < samples[i-1].AtS {
			return fmt.Errorf("workload: sample %d time %gs is before sample %d (%gs)",
				i, s.AtS, i-1, samples[i-1].AtS)
		}
		if s.Util < 0 || s.Util > 1 {
			return fmt.Errorf("workload: sample %d utilization %g outside [0, 1]", i, s.Util)
		}
	}
	return nil
}

// SortSamples orders a sample train by time, stably, for callers that
// ingested unordered external data deliberately.
func SortSamples(samples []Sample) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].AtS < samples[j].AtS })
}

// traceFromTotal wraps a bare total utilization vector as a Trace (no
// per-class split: the fleet engines consume Total only).
func traceFromTotal(start, step float64, values []float64) (*Trace, error) {
	total, err := timeseries.FromValues(start, step, values)
	if err != nil {
		return nil, err
	}
	return &Trace{Total: total, PerType: map[JobType]*timeseries.Series{}}, nil
}
