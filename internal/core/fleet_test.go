package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/tco"
	"repro/internal/workload"
)

// fleetTestStudy is a study over a short one-day trace so the fleet
// experiment tests stay fast.
func fleetTestStudy(t *testing.T) *Study {
	t.Helper()
	tr, err := workload.Generate(workload.Options{
		Days: 1, StepS: 600, Seed: 11, MeanUtil: 0.5, PeakUtil: 0.95, NoiseAmp: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Study{Trace: tr, TCO: tco.PaperParams(), CriticalPowerKW: 10000}
}

func TestParseFleetMix(t *testing.T) {
	mix, err := ParseFleetMix("1U=13, 2u=10, ocp=4, nowax:1U=2")
	if err != nil {
		t.Fatal(err)
	}
	want := []FleetClass{
		{Class: OneU, Racks: 13},
		{Class: TwoU, Racks: 10},
		{Class: OpenCompute, Racks: 4},
		{Class: OneU, Racks: 2, NoWax: true},
	}
	if len(mix) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "1U", "1U=0", "1U=-3", "1U=x", "4U=2", " , "} {
		if _, err := ParseFleetMix(bad); err == nil {
			t.Errorf("ParseFleetMix(%q) accepted", bad)
		}
	}
}

func TestRunFleetStudyHomogeneousAnchor(t *testing.T) {
	s := fleetTestStudy(t)
	r, err := s.RunFleetStudy(FleetSpec{
		Mix:      []FleetClass{{Class: OneU, Racks: 3}},
		Policies: []string{"roundrobin", "thermal"},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Homogeneous {
		t.Error("single wax class not flagged homogeneous")
	}
	if r.Servers != 3*OneU.Config().ServersPerRack {
		t.Errorf("servers = %d", r.Servers)
	}
	if math.IsNaN(r.FluidDelta) {
		t.Fatal("homogeneous round-robin fleet has no fluid anchor")
	}
	if r.FluidDelta > 0.005 {
		t.Errorf("fleet vs fluid peak delta %.5f, want < 0.5%%", r.FluidDelta)
	}
	if len(r.Policies) != 2 {
		t.Fatalf("got %d policy results", len(r.Policies))
	}
	for _, p := range r.Policies {
		if p.PeakReduction <= 0 {
			t.Errorf("policy %s: wax produced no peak shave (%v)", p.Policy, p.PeakReduction)
		}
		if p.CoolingLoadW == nil || p.CoolingLoadW.Len() != s.Trace.Total.Len() {
			t.Errorf("policy %s: missing cooling trace", p.Policy)
		}
		if p.ShedServerSeconds != 0 {
			t.Errorf("policy %s shed %v server-seconds on an unsaturated fleet", p.Policy, p.ShedServerSeconds)
		}
	}
	// Identical thermal state across a homogeneous fleet: thermal must
	// equal round robin, so its TCO delta is ~zero.
	if rr := r.Policies[0]; rr.TCODeltaUSD != 0 {
		t.Errorf("round robin's own TCO delta = %v, want 0", rr.TCODeltaUSD)
	}
}

func TestRunFleetStudyMixed(t *testing.T) {
	s := fleetTestStudy(t)
	r, err := s.RunFleetStudy(FleetSpec{
		Mix: []FleetClass{
			{Class: OneU, Racks: 3},
			{Class: OneU, Racks: 2, NoWax: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Homogeneous {
		t.Error("mixed wax/no-wax fleet flagged homogeneous")
	}
	if !math.IsNaN(r.FluidDelta) {
		t.Error("heterogeneous fleet reported a fluid anchor")
	}
	if want := len(fleet.Policies()); len(r.Policies) != want {
		t.Fatalf("default policy set ran %d policies, want %d", len(r.Policies), want)
	}
	for _, p := range r.Policies {
		if p.HottestRackPeakW <= 0 {
			t.Errorf("policy %s: no hottest-rack metric", p.Policy)
		}
	}
	if _, err := s.RunFleetStudy(FleetSpec{}); err == nil {
		t.Error("accepted empty fleet spec")
	}
	if _, err := s.RunFleetStudy(FleetSpec{
		Mix:      []FleetClass{{Class: OneU, Racks: 1}},
		Policies: []string{"bogus"},
	}); err == nil {
		t.Error("accepted unknown policy name")
	}
}

// TestFleetStudyKernelPathsAgree pins that watching a study does not change
// its results: a default study and an observed study (registry attached,
// so the fleet also derives wax telemetry) must produce identical headline
// numbers. This is the core-level face of fleet's TestCompiledMatchesSlow.
func TestFleetStudyKernelPathsAgree(t *testing.T) {
	spec := FleetSpec{
		Mix: []FleetClass{
			{Class: OneU, Racks: 3},
			{Class: OneU, Racks: 2, NoWax: true},
		},
		Policies: []string{"roundrobin", "thermal"},
	}
	compiled, err := fleetTestStudy(t).RunFleetStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	observed := fleetTestStudy(t)
	observed.Observe(obs.New())
	reference, err := observed.RunFleetStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, cp := range compiled.Policies {
		rp := reference.Policies[i]
		for _, v := range []struct {
			field string
			c, r  float64
		}{
			{"PeakPowerW", cp.PeakPowerW, rp.PeakPowerW},
			{"PeakCoolingW", cp.PeakCoolingW, rp.PeakCoolingW},
			{"BaselinePeakCoolingW", cp.BaselinePeakCoolingW, rp.BaselinePeakCoolingW},
			{"PeakReduction", cp.PeakReduction, rp.PeakReduction},
			{"HottestRackPeakW", cp.HottestRackPeakW, rp.HottestRackPeakW},
			{"AnnualCoolingSavingsUSD", cp.AnnualCoolingSavingsUSD, rp.AnnualCoolingSavingsUSD},
			{"ShedServerSeconds", cp.ShedServerSeconds, rp.ShedServerSeconds},
		} {
			if math.Float64bits(v.c) != math.Float64bits(v.r) {
				t.Errorf("policy %s: %s compiled %v != reference %v",
					cp.Policy, v.field, v.c, v.r)
			}
		}
	}
}

// TestScenarioCorpusObserveIdentity extends the observe check to the whole
// scenario corpus: every entry run through RunScenarioStudy with and
// without a registry attached must yield bit-identical floats throughout
// its ScenarioResult, traces included.
func TestScenarioCorpusObserveIdentity(t *testing.T) {
	plain, observed := NewStudy(), NewStudy()
	observed.Observe(obs.New())
	for _, name := range scenario.Names() {
		spec := ScenarioSpec{Name: name, Workers: 2}
		want, err := plain.RunScenarioStudy(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := observed.RunScenarioStudy(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diffs := floatBitsDiff(name, reflect.ValueOf(*want), reflect.ValueOf(*got)); len(diffs) > 0 {
			t.Errorf("observed run differs: %v", diffs)
		}
	}
}

// floatBitsDiff walks two values of the same type and names every float64
// whose bits differ, plus any other field that is not equal.
func floatBitsDiff(path string, a, b reflect.Value) []string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return []string{fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return []string{path + ": nil mismatch"}
			}
			return nil
		}
		return floatBitsDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < a.NumField(); i++ {
			out = append(out, floatBitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
		return out
	case reflect.Slice:
		if a.Len() != b.Len() {
			return []string{fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len())}
		}
		var out []string
		for i := 0; i < a.Len(); i++ {
			out = append(out, floatBitsDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))...)
		}
		return out
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return []string{fmt.Sprintf("%s: %v != %v", path, a.Interface(), b.Interface())}
		}
	}
	return nil
}
