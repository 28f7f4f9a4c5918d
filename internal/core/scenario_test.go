package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/timeseries"
)

func TestMixFromScenario(t *testing.T) {
	mix, err := MixFromScenario([]scenario.MixEntry{
		{Tag: "1U", Racks: 2}, {Tag: "2U", Racks: 1, NoWax: true}, {Tag: "OCP", Racks: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []FleetClass{
		{Class: OneU, Racks: 2}, {Class: TwoU, Racks: 1, NoWax: true}, {Class: OpenCompute, Racks: 3},
	}
	for i, fc := range mix {
		if fc != want[i] {
			t.Errorf("entry %d: %+v, want %+v", i, fc, want[i])
		}
	}
	if _, err := MixFromScenario([]scenario.MixEntry{{Tag: "4U", Racks: 1}}); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestRunScenarioStudyNamed(t *testing.T) {
	s := NewStudy()
	r, err := s.RunScenarioStudy(context.Background(), ScenarioSpec{Name: "flash-crowd"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "flash-crowd" {
		t.Errorf("name %q, want flash-crowd", r.Name)
	}
	sc, err := scenario.Named("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	if r.Canonical != sc.String() {
		t.Error("Canonical does not match the corpus entry's normal form")
	}
	if r.Epochs == 0 || r.Racks == 0 || r.Servers == 0 {
		t.Errorf("empty shape: epochs=%d racks=%d servers=%d", r.Epochs, r.Racks, r.Servers)
	}
	if r.Wax.PeakCoolingW <= 0 || r.NoWax.PeakCoolingW <= 0 {
		t.Errorf("cooling peaks not populated: wax=%v bare=%v", r.Wax.PeakCoolingW, r.NoWax.PeakCoolingW)
	}
	if r.NoWax.PeakWaxLiquid != 0 {
		t.Errorf("bare baseline melted wax: %v", r.NoWax.PeakWaxLiquid)
	}
	if r.Wax.PeakWaxLiquid <= 0 {
		t.Errorf("wax run never melted: %v", r.Wax.PeakWaxLiquid)
	}
	if r.PeakShavedW != r.NoWax.PeakCoolingW-r.Wax.PeakCoolingW {
		t.Errorf("PeakShavedW inconsistent: %v", r.PeakShavedW)
	}
}

func TestRunScenarioStudyDefaultsAndErrors(t *testing.T) {
	s := NewStudy()
	// Unknown corpus names fail up front.
	if _, err := s.RunScenarioStudy(context.Background(), ScenarioSpec{Name: "no-such"}); err == nil {
		t.Error("unknown scenario name accepted")
	}
	// An inline spec with no name reports as "inline".
	sc, err := scenario.ParseString("workload flat\ndays 1\nfleet 1U=1\n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunScenarioStudy(context.Background(), ScenarioSpec{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "inline" {
		t.Errorf("unnamed inline spec reported as %q", r.Name)
	}
	// An invalid inline spec is rejected by Validate, not mid-run.
	bad, err := scenario.ParseString("workload flat\ndays 1\nfleet 1U=1\n")
	if err != nil {
		t.Fatal(err)
	}
	bad.Balance = "chaotic"
	if _, err := s.RunScenarioStudy(context.Background(), ScenarioSpec{Scenario: bad}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestRunScenarioStudyEditedNamed pins the corpus memo's key end to
// end: a spec taken from Named and edited afterwards runs the edited
// workload, never the memoized corpus trace.
func TestRunScenarioStudyEditedNamed(t *testing.T) {
	s := NewStudy()
	ctx := context.Background()
	orig, err := s.RunScenarioStudy(ctx, ScenarioSpec{Name: "diurnal-baseline"})
	if err != nil {
		t.Fatal(err)
	}

	shorter, err := scenario.Named("diurnal-baseline")
	if err != nil {
		t.Fatal(err)
	}
	shorter.Gen.Days = 1
	r, err := s.RunScenarioStudy(ctx, ScenarioSpec{Name: "diurnal-baseline", Scenario: shorter})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs != orig.Epochs/2 {
		t.Errorf("edited to 1 day: %d epochs, want %d", r.Epochs, orig.Epochs/2)
	}
	if r.Canonical != shorter.String() || r.Canonical == orig.Canonical {
		t.Errorf("edited spec reported canonical text:\n%s", r.Canonical)
	}

	// A reseeded clone keeps the grid, so only the physics can tell; it
	// must match a fresh parse of its own text, not the corpus run.
	reseeded, err := scenario.Named("diurnal-baseline")
	if err != nil {
		t.Fatal(err)
	}
	reseeded.Gen.Seed++
	got, err := s.RunScenarioStudy(ctx, ScenarioSpec{Scenario: reseeded})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := scenario.ParseString(reseeded.String())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.RunScenarioStudy(ctx, ScenarioSpec{Scenario: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if got.Epochs != orig.Epochs || got.Canonical != want.Canonical || got.Canonical == orig.Canonical {
		t.Errorf("reseeded spec: epochs %d, canonical changed %v", got.Epochs, got.Canonical != orig.Canonical)
	}
	sameSeries(t, "reseeded wax cooling", got.Wax.CoolingLoadW, want.Wax.CoolingLoadW)
	if got.Wax.PeakCoolingW == orig.Wax.PeakCoolingW && got.NoWax.PeakCoolingW == orig.NoWax.PeakCoolingW {
		t.Error("reseeded spec reproduced the corpus run's peaks; it ran the memoized trace")
	}
}

// sameSeries asserts bit-identity: identical grid and identical values
// down to the float representation.
func sameSeries(t *testing.T, label string, a, b *timeseries.Series) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Errorf("%s: one run missing the series", label)
		}
		return
	}
	if a.Start != b.Start || a.Step != b.Step || a.Len() != b.Len() {
		t.Errorf("%s: grids differ: (%v,%v,%d) vs (%v,%v,%d)",
			label, a.Start, a.Step, a.Len(), b.Start, b.Step, b.Len())
		return
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Errorf("%s: values diverge at %d: %v vs %v", label, i, a.Values[i], b.Values[i])
			return
		}
	}
}

// TestScenarioWorkerBitIdentity is the determinism contract: the same
// scenario — with a fault schedule and a closed-loop autoscaler active,
// the two features that route state through the epoch loop — produces
// bit-identical results whether the fleet steps on 1 worker or 8.
func TestScenarioWorkerBitIdentity(t *testing.T) {
	const src = `
workload diurnal
days 1
step 5m
seed 7
mean 0.5
peak 0.95
add spike 10h ramp 1h peak 0.2 hold 3h
fleet 1U=2,nowax:2U=1,OCP=1
balance thermal
autoscale hysteresis
fault 11h chiller-trip for 45m
fault 14h rack 1 fan-degrade 0.5 for 2h
`
	s := NewStudy()
	results := make([]*ScenarioResult, 2)
	for i, workers := range []int{1, 8} {
		sc, err := scenario.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.RunScenarioStudy(context.Background(), ScenarioSpec{
			Name: "bit-identity", Scenario: sc, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	a, b := results[0], results[1]
	if a.Workers == b.Workers {
		t.Fatalf("worker counts did not differ (%d vs %d)", a.Workers, b.Workers)
	}
	scalars := []struct {
		label  string
		av, bv float64
	}{
		{"wax peak power", a.Wax.PeakPowerW, b.Wax.PeakPowerW},
		{"wax peak cooling", a.Wax.PeakCoolingW, b.Wax.PeakCoolingW},
		{"wax throttled", a.Wax.ThrottledServerSeconds, b.Wax.ThrottledServerSeconds},
		{"wax shed", a.Wax.ShedServerSeconds, b.Wax.ShedServerSeconds},
		{"wax onset", a.Wax.ThrottleOnsetS, b.Wax.ThrottleOnsetS},
		{"wax peak rise", a.Wax.PeakInletRiseC, b.Wax.PeakInletRiseC},
		{"wax melt", a.Wax.PeakWaxLiquid, b.Wax.PeakWaxLiquid},
		{"wax absorbed", a.Wax.AbsorbedJ, b.Wax.AbsorbedJ},
		{"bare peak power", a.NoWax.PeakPowerW, b.NoWax.PeakPowerW},
		{"bare peak cooling", a.NoWax.PeakCoolingW, b.NoWax.PeakCoolingW},
		{"bare throttled", a.NoWax.ThrottledServerSeconds, b.NoWax.ThrottledServerSeconds},
		{"bare shed", a.NoWax.ShedServerSeconds, b.NoWax.ShedServerSeconds},
		{"bare onset", a.NoWax.ThrottleOnsetS, b.NoWax.ThrottleOnsetS},
		{"bare peak rise", a.NoWax.PeakInletRiseC, b.NoWax.PeakInletRiseC},
		{"shaved", a.PeakShavedW, b.PeakShavedW},
		{"extension", a.ExtensionS, b.ExtensionS},
	}
	for _, c := range scalars {
		if math.Float64bits(c.av) != math.Float64bits(c.bv) {
			t.Errorf("%s diverges across worker counts: %v vs %v", c.label, c.av, c.bv)
		}
	}
	if a.Wax.AutoscaleEpochs != b.Wax.AutoscaleEpochs {
		t.Errorf("autoscale epochs diverge: %d vs %d", a.Wax.AutoscaleEpochs, b.Wax.AutoscaleEpochs)
	}
	if a.Decisions != b.Decisions {
		t.Errorf("controller decisions diverge: %d vs %d", a.Decisions, b.Decisions)
	}
	if a.FaultEvents != b.FaultEvents || a.FaultEvents == 0 {
		t.Errorf("fault events: %d vs %d (want equal, nonzero)", a.FaultEvents, b.FaultEvents)
	}
	sameSeries(t, "wax cooling", a.Wax.CoolingLoadW, b.Wax.CoolingLoadW)
	sameSeries(t, "wax inlet rise", a.Wax.InletRiseC, b.Wax.InletRiseC)
	sameSeries(t, "bare cooling", a.NoWax.CoolingLoadW, b.NoWax.CoolingLoadW)
	sameSeries(t, "bare inlet rise", a.NoWax.InletRiseC, b.NoWax.InletRiseC)
}
