package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/pcm"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/tco"
)

// The studies workload: one caller runs whole study passes. A pass starts
// from a fresh core.Study, runs every experiment `ttsim -exp all` runs,
// then every corpus scenario one after another. The fleets are tiny, so
// the time goes to per-study set-up (scenario parse and validate, trace
// build, ROM derivation), the epoch loop's sequential section, the
// thermal network and the fluid engine.

// studiesLimit is the studies latency limit behind slo_frac: one pass.
const studiesLimit = 30 * time.Second

// experimentOrder is the order `ttsim -exp all` runs its experiments in.
var experimentOrder = []string{
	"table1", "fig4", "fig7", "fig10", "fig11", "fig12",
	"table2", "tco", "extensions", "fleet", "faults", "autoscale", "scenario", "waxsweep", "check",
}

// experiments maps each experiment to the core calls behind it, returning
// the machine-readable view the serving layer would answer with.
var experiments = map[string]func(context.Context, *core.Study) (any, error){
	"table1": func(context.Context, *core.Study) (any, error) {
		comm, err := pcm.CommercialParaffin(50)
		if err != nil {
			return nil, err
		}
		return report.Table1JSON(pcm.DatacenterCriteria(), pcm.Families(), pcm.Eicosane(), comm, 1.2*55*1008), nil
	},
	"fig4": func(_ context.Context, s *core.Study) (any, error) {
		v, err := s.RunValidation()
		if err != nil {
			return nil, err
		}
		return report.ValidationJSON(v), nil
	},
	"fig7": func(ctx context.Context, s *core.Study) (any, error) {
		res, err := s.RunBlockageSweepsContext(ctx)
		if err != nil {
			return nil, err
		}
		return report.SweepsJSON(res), nil
	},
	"fig10": func(_ context.Context, s *core.Study) (any, error) { return report.TraceJSON(s.Trace), nil },
	"fig11": func(_ context.Context, s *core.Study) (any, error) {
		var out []*report.CoolingView
		for _, m := range core.Classes {
			r, err := s.RunCoolingStudy(m)
			if err != nil {
				return nil, err
			}
			out = append(out, report.CoolingJSON(r))
		}
		return out, nil
	},
	"fig12": func(_ context.Context, s *core.Study) (any, error) {
		var out []*report.ThroughputView
		for _, m := range core.Classes {
			r, err := s.RunThroughputStudy(m)
			if err != nil {
				return nil, err
			}
			out = append(out, report.ThroughputJSON(r))
		}
		return out, nil
	},
	"table2": func(_ context.Context, s *core.Study) (any, error) { return report.Table2JSON(s.TCO), nil },
	"tco": func(_ context.Context, s *core.Study) (any, error) {
		var out []report.TCOMachineView
		for _, m := range core.Classes {
			cfg := m.Config()
			d := tco.Datacenter{
				CriticalPowerKW: s.CriticalPowerKW,
				Servers:         core.DefaultScenario(m).Clusters * cfg.ClusterSize,
				ServerCostUSD:   cfg.CostUSD,
			}
			annual, err := tco.Annual(s.TCO, d)
			if err != nil {
				return nil, err
			}
			cool, err := s.RunCoolingStudy(m)
			if err != nil {
				return nil, err
			}
			thr, err := s.RunThroughputStudy(m)
			if err != nil {
				return nil, err
			}
			out = append(out, report.TCOMachineJSON(m, d.Servers, cfg.CostUSD, annual, cool, thr))
		}
		return out, nil
	},
	"extensions": func(_ context.Context, s *core.Study) (any, error) {
		var out []report.ExtensionView
		for _, m := range core.Classes {
			cw, err := s.CompareChilledWater(m)
			if err != nil {
				return nil, err
			}
			comp, err := s.RunComplementarity(m)
			if err != nil {
				return nil, err
			}
			night, err := s.RunNightAdvantages(m)
			if err != nil {
				return nil, err
			}
			em, err := s.RunEmergencyRideThrough(m, core.DefaultEmergency())
			if err != nil {
				return nil, err
			}
			rel, err := s.RunRelocationStudy(m, core.DefaultRelocation())
			if err != nil {
				return nil, err
			}
			pl, err := s.ComparePlacement(m)
			if err != nil {
				return nil, err
			}
			out = append(out, report.ExtensionJSON(cw, comp, night, em, rel, pl))
		}
		return out, nil
	},
	"fleet": func(ctx context.Context, s *core.Study) (any, error) {
		r, err := s.RunFleetStudyContext(ctx, core.DefaultFleetSpec())
		if err != nil {
			return nil, err
		}
		return report.FleetJSON(r), nil
	},
	"faults": func(ctx context.Context, s *core.Study) (any, error) {
		r, err := s.RunFaultStudy(ctx, core.DefaultFaultSpec())
		if err != nil {
			return nil, err
		}
		return report.FaultsJSON(r), nil
	},
	"autoscale": func(ctx context.Context, s *core.Study) (any, error) {
		r, err := s.RunAutoscaleStudy(ctx, core.DefaultAutoscaleSpec())
		if err != nil {
			return nil, err
		}
		return report.AutoscaleJSON(r), nil
	},
	"scenario": func(ctx context.Context, s *core.Study) (any, error) {
		r, err := s.RunScenarioStudy(ctx, core.ScenarioSpec{})
		if err != nil {
			return nil, err
		}
		return report.ScenarioJSON(r), nil
	},
	"waxsweep": func(_ context.Context, s *core.Study) (any, error) {
		var out []report.WaxSweepView
		for _, m := range core.Classes {
			pts, err := s.WaxQuantitySweep(m, []float64{0.25, 0.5, 1, 1.5, 2})
			if err != nil {
				return nil, err
			}
			out = append(out, report.WaxSweepJSON(m, pts))
		}
		return out, nil
	},
	"check": func(_ context.Context, s *core.Study) (any, error) {
		b, err := s.CollectResults()
		if err != nil {
			return nil, err
		}
		if rows, ok := b.SelfCheck(); !ok {
			for _, r := range rows {
				if !r.OK {
					return nil, fmt.Errorf("self-check: %s measured %g, paper %g, outside the 0.5x-2x band", r.Name, r.Measured, r.Paper)
				}
			}
		}
		return report.CheckJSON(b), nil
	},
}

// goldenDir holds the serving layer's pinned responses, read from the
// checkout under test so each commit is checked against its own pins.
var goldenDir = filepath.Join("internal", "serve", "testdata", "golden")

// goldenTolerance is the relative difference a study result may show
// against its golden, number by number.
const goldenTolerance = 1e-9

// corpus is the loaded scenario corpus with the golden answer for every
// entry and every default experiment.
type corpus struct {
	names   []string
	goldens map[string][]byte // golden file stem -> response body
}

// loadCorpus parses and validates every corpus entry and reads the
// goldens from root.
func loadCorpus(root string) (*corpus, error) {
	c := &corpus{names: scenario.Names(), goldens: map[string][]byte{}}
	stems := append([]string(nil), experimentOrder...)
	for _, n := range c.names {
		sc, err := scenario.Named(n)
		if err == nil {
			err = sc.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("corpus entry %s: %w", n, err)
		}
		stems = append(stems, "scenario-"+n)
	}
	for _, stem := range stems {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, stem+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", stem, err)
		}
		c.goldens[stem] = b
	}
	return c, nil
}

// matchGolden compares a view against the "result" of a golden response,
// number by number within goldenTolerance; it returns the first
// difference, or "" when they agree.
func matchGolden(view any, golden []byte) string {
	var env struct{ Result any }
	if err := json.Unmarshal(golden, &env); err != nil {
		return "golden does not decode: " + err.Error()
	}
	b, err := json.Marshal(view)
	if err != nil {
		return "result does not encode: " + err.Error()
	}
	var got any
	if err := json.Unmarshal(b, &got); err != nil {
		return "result does not decode: " + err.Error()
	}
	return diffJSON("result", env.Result, got)
}

// diffJSON walks two decoded JSON values and names the first place they
// differ beyond goldenTolerance.
func diffJSON(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return path + ": object shape differs"
		}
		for k, wv := range w {
			if d := diffJSON(path+"."+k, wv, g[k]); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return path + ": array length differs"
		}
		for i := range w {
			if d := diffJSON(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > goldenTolerance*math.Max(math.Abs(w), math.Abs(g)) {
			return fmt.Sprintf("%s: got %v, golden %v", path, got, w)
		}
	default:
		if want != got {
			return fmt.Sprintf("%s: got %v, golden %v", path, got, want)
		}
	}
	return ""
}

// studyPass runs one pass on a fresh study. It returns the host time the
// pass spent in the simulator (golden checks excluded) and the problems
// the checks found. t, when non-nil, records a span per experiment and per
// scenario under a span for the pass; timings, when non-nil, receives the
// host milliseconds of each.
func studyPass(ctx context.Context, c *corpus, names []string, t *tracer, timings map[string]float64) (time.Duration, []string, error) {
	root, end := t.start("core.study_pass", -1)
	defer end()
	start := time.Now()
	s := core.NewStudy()
	total := time.Since(start)
	var bad []string
	timed := func(name string, fn func() (any, error), golden string) error {
		_, endSpan := t.start("core.study/"+name, root)
		start := time.Now()
		view, err := fn()
		took := time.Since(start)
		endSpan()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		total += took
		if timings != nil {
			timings[name] = ms(took)
		}
		if d := matchGolden(view, c.goldens[golden]); d != "" {
			bad = append(bad, fmt.Sprintf("%s differs from its golden: %s", name, d))
		}
		return nil
	}
	for _, name := range experimentOrder {
		fn := experiments[name]
		if err := timed(name, func() (any, error) { return fn(ctx, s) }, name); err != nil {
			return 0, nil, err
		}
	}
	for _, n := range names {
		run := func() (any, error) {
			r, err := s.RunScenarioStudy(ctx, core.ScenarioSpec{Name: n})
			if err != nil {
				return nil, err
			}
			return report.ScenarioJSON(r), nil
		}
		if err := timed("scenario."+n, run, "scenario-"+n); err != nil {
			return 0, nil, err
		}
	}
	return total, bad, nil
}

// smokeScenarios is the corpus subset a smoke pass replays.
var smokeScenarios = []string{"diurnal-baseline", "ramp-surge"}

func runStudies(o options) (*outcome, error) {
	out := &outcome{}
	var c *corpus
	for i := 0; i < 7; i++ {
		start := time.Now()
		_ = core.NewStudy()
		var err error
		if c, err = loadCorpus(o.root); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	names := c.names
	if o.smoke {
		names = smokeScenarios
	}

	ctx := context.Background()
	allocStart, cpuStart := totalAlloc(), cpuTime()
	loopStart := time.Now()
	for out.attempted < 3 || time.Since(loopStart).Seconds() < o.seconds {
		out.attempted++
		took, bad, err := studyPass(ctx, c, names, nil, nil)
		if err != nil {
			out.failed++
			out.check(false, "pass %d: %v", out.attempted, err)
			continue
		}
		out.ops = append(out.ops, ms(took))
		for _, p := range bad {
			out.check(false, "pass %d: %s", out.attempted, p)
		}
		if len(bad) == 0 && took <= studiesLimit {
			out.inLimit++
		}
	}
	out.allocB, out.cpu = totalAlloc()-allocStart, cpuTime()-cpuStart
	fmt.Fprintf(o.out, "studies: %d experiments + %d scenarios per pass, golden tolerance %g relative\n",
		len(experimentOrder), len(names), goldenTolerance)
	fmt.Fprintf(o.out, "studies_pass_s %.4f s (median of %d passes)\n", median(out.ops)/1e3, len(out.ops))
	return out, nil
}
