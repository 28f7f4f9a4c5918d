package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/autoscale"
	"repro/internal/fleet"
	"repro/internal/flightrec"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/timeseries"
)

// ---------------------------------------------------------------------------
// Scenario experiment: one .scenario file describes the whole run — the
// composed workload, the fleet mix, the balancing policy, an optional
// closed-loop autoscaler, and the fault schedule — and this study
// executes it twice: once as written (the wax run, with the controller
// if the file asks for one) and once with the retrofit stripped and the
// loop open (the bare-fleet baseline). The contrast is the paper's
// question asked of an arbitrary scenario: what did the wax buy here?
// The embedded corpus of named scenarios is pinned end-to-end through
// the serving layer's goldens, which makes every entry a regression
// test for the workload, fleet, faults and autoscale code it exercises.

// ScenarioSpec configures the scenario experiment.
type ScenarioSpec struct {
	// Name labels the run (the corpus name, or "inline" for ad-hoc
	// sources).
	Name string
	// Scenario is the parsed description; nil resolves Name from the
	// embedded corpus (empty Name selects diurnal-baseline).
	Scenario *scenario.Spec
	// Workers bounds the stepping pool (0 = runtime.NumCPU()).
	Workers int
	// Recorder, when set, attaches a flight recorder to the wax run.
	Recorder *flightrec.Recorder `json:"-"`
}

// ScenarioRun is one variant's outcome (wax as written, or the bare
// baseline).
type ScenarioRun struct {
	// PeakPowerW and PeakCoolingW are the fleet-wide peaks.
	PeakPowerW, PeakCoolingW float64
	// ThrottledServerSeconds and ShedServerSeconds are the degradation
	// bill; ThrottleOnsetS the first trigger crossing (NaN = never).
	ThrottledServerSeconds float64
	ShedServerSeconds      float64
	ThrottleOnsetS         float64
	// PeakInletRiseC is the worst room excursion.
	PeakInletRiseC float64
	// PeakWaxLiquid is the deepest melt (0 for the bare baseline).
	PeakWaxLiquid float64
	// AbsorbedJ is the wax energy soaked over the run.
	AbsorbedJ float64
	// AutoscaleEpochs counts epochs with a binding ceiling (0 open-loop).
	AutoscaleEpochs int
	// CoolingLoadW and InletRiseC are the run's traces (for -csv).
	CoolingLoadW *timeseries.Series
	InletRiseC   *timeseries.Series
}

// ScenarioResult is the scenario experiment outcome.
type ScenarioResult struct {
	Name string
	// Canonical is the scenario's normal-form text (Spec.String()) — the
	// exact description the result answers for.
	Canonical      string
	Racks, Servers int
	Workers        int
	// Pattern, Days, StepS, Balance and Autoscale echo the description.
	Pattern   string
	Days      int
	StepS     float64
	Balance   string
	Autoscale string
	Epochs    int
	// FaultEvents counts schedule events applied; TripAtS is the first
	// chiller trip (NaN if none).
	FaultEvents int
	TripAtS     float64
	// Wax is the run as described; NoWax the open-loop bare baseline
	// under the same balancer, workload and faults.
	Wax, NoWax ScenarioRun
	// PeakShavedW and PeakShavedPct compare the cooling peaks.
	PeakShavedW, PeakShavedPct float64
	// ExtensionS is the extra ride-through the retrofit bought (only
	// meaningful when both runs throttled or the scenario has a trip).
	ExtensionS float64
	// Decisions and Actions summarize the controller (closed loop only).
	Decisions int
	Actions   map[string]int
}

// classByTag resolves a scenario mix tag to its machine class.
func classByTag(tag string) (MachineClass, error) {
	switch tag {
	case "1U":
		return OneU, nil
	case "2U":
		return TwoU, nil
	case "OCP":
		return OpenCompute, nil
	}
	return 0, fmt.Errorf("core: unknown class tag %q", tag)
}

// MixFromScenario converts a scenario mix into the fleet experiment's
// form.
func MixFromScenario(mix []scenario.MixEntry) ([]FleetClass, error) {
	out := make([]FleetClass, 0, len(mix))
	for _, m := range mix {
		cl, err := classByTag(m.Tag)
		if err != nil {
			return nil, err
		}
		out = append(out, FleetClass{Class: cl, Racks: m.Racks, NoWax: m.NoWax})
	}
	return out, nil
}

// RunScenarioStudy executes one scenario description end to end. The
// context cancels the underlying fleet runs at their next epoch boundary.
func (s *Study) RunScenarioStudy(ctx context.Context, spec ScenarioSpec) (*ScenarioResult, error) {
	sc := spec.Scenario
	name := spec.Name
	if sc == nil {
		if name == "" {
			name = "diurnal-baseline"
		}
		var err error
		if sc, err = scenario.Named(name); err != nil {
			return nil, err
		}
	} else if name == "" {
		name = "inline"
	}
	sp := s.Obs.StartSpan("core.scenario_study")
	defer sp.End()

	tr, err := sc.Build()
	if err != nil {
		return nil, err
	}
	balancer, err := fleet.ParsePolicy(sc.Balance)
	if err != nil {
		return nil, err
	}
	mix, err := MixFromScenario(sc.Mix)
	if err != nil {
		return nil, err
	}

	// Derive each class's ROM once and share it across both runs.
	roms := make(map[MachineClass]*server.ROM)
	classes := make([]fleet.ClassSpec, 0, len(mix))
	for _, fc := range mix {
		cfg := fc.Class.Config()
		if cfg == nil {
			return nil, fmt.Errorf("core: unknown machine class %v", fc.Class)
		}
		cs := fleet.ClassSpec{Cfg: cfg, Racks: fc.Racks, WithWax: !fc.NoWax}
		if !fc.NoWax {
			rom, ok := roms[fc.Class]
			if !ok {
				if rom, err = server.DeriveROMObserved(cfg, cfg.Wax.DefaultMeltC, s.Obs); err != nil {
					return nil, err
				}
				roms[fc.Class] = rom
			}
			cs.ROM = rom
		}
		classes = append(classes, cs)
	}

	out := &ScenarioResult{
		Name:      name,
		Canonical: sc.String(),
		Pattern:   sc.Gen.Pattern.String(),
		Days:      sc.Gen.Days,
		StepS:     sc.Gen.StepS,
		Balance:   balancer.Name(),
		Autoscale: sc.Autoscale,
		Epochs:    tr.Total.Len(),
		TripAtS:   math.NaN(),
	}
	if sc.Faults != nil {
		if at, ok := sc.Faults.FirstTrip(); ok {
			out.TripAtS = at
		}
	}

	run := func(withWax bool, ctrl *autoscale.Controller, rec *flightrec.Recorder) (*fleet.Run, error) {
		cs := make([]fleet.ClassSpec, len(classes))
		copy(cs, classes)
		if !withWax {
			for i := range cs {
				cs[i].WithWax = false
				cs[i].ROM = nil
			}
		}
		var scaler fleet.Scaler
		if ctrl != nil {
			scaler = ctrl
		}
		f, err := fleet.New(fleet.Config{
			Classes: cs, Policy: balancer, Workers: spec.Workers,
			Faults: sc.Faults, Obs: s.Obs, Scaler: scaler, Recorder: rec,
		})
		if err != nil {
			return nil, err
		}
		out.Racks, out.Servers, out.Workers = f.Racks(), f.Servers(), f.Workers()
		r, err := f.RunContext(ctx, tr)
		if err == nil {
			sp.AddSimTime(tr.Total.End() - tr.Total.Start)
		}
		return r, err
	}

	var ctrl *autoscale.Controller
	if sc.Autoscale != "" {
		pol, err := autoscale.ParsePolicy(sc.Autoscale)
		if err != nil {
			return nil, err
		}
		ctrl = autoscale.New(autoscale.Config{Policy: pol})
		if spec.Recorder != nil {
			ctrl.AttachRecorder(spec.Recorder)
		}
	}
	wax, err := run(true, ctrl, spec.Recorder)
	if err != nil {
		return nil, err
	}
	base, err := run(false, nil, nil)
	if err != nil {
		return nil, err
	}

	out.FaultEvents = wax.FaultEvents
	out.Wax = summarizeScenarioRun(wax)
	out.NoWax = summarizeScenarioRun(base)
	out.PeakShavedW = out.NoWax.PeakCoolingW - out.Wax.PeakCoolingW
	if out.NoWax.PeakCoolingW > 0 {
		out.PeakShavedPct = 100 * out.PeakShavedW / out.NoWax.PeakCoolingW
	}
	out.ExtensionS = out.Wax.ThrottleOnsetS - out.NoWax.ThrottleOnsetS
	if ctrl != nil {
		out.Decisions = ctrl.Decisions()
		out.Actions = ctrl.ActionCounts()
	}
	return out, nil
}

// summarizeScenarioRun folds one fleet run into the result's view.
func summarizeScenarioRun(r *fleet.Run) ScenarioRun {
	out := ScenarioRun{
		ThrottledServerSeconds: r.ThrottledServerSeconds,
		ShedServerSeconds:      r.ShedServerSeconds,
		ThrottleOnsetS:         r.ThrottleOnsetS,
		AbsorbedJ:              r.AbsorbedJ,
		AutoscaleEpochs:        r.AutoscaleEpochs,
		CoolingLoadW:           r.CoolingLoadW,
		InletRiseC:             r.InletRiseC,
	}
	out.PeakPowerW, _ = r.PowerW.Peak()
	out.PeakCoolingW, _ = r.CoolingLoadW.Peak()
	out.PeakInletRiseC, _ = r.InletRiseC.Peak()
	out.PeakWaxLiquid, _ = r.WaxLiquid.Peak()
	return out
}
