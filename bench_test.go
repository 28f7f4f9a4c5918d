package tts

import (
	"testing"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/pcm"
	"repro/internal/server"
	"repro/internal/tco"
	"repro/internal/units"
	"repro/internal/workload"
)

// One benchmark per table and figure of the paper's evaluation; running
// `go test -bench=. -benchmem` regenerates every reported quantity. The
// headline number of each experiment is attached as a custom metric so the
// bench output doubles as the results table.

// ---------------------------------------------------------------------------
// Table 1.

func BenchmarkTable1Materials(b *testing.B) {
	b.ReportAllocs()
	crit := pcm.DatacenterCriteria()
	var suitable int
	for i := 0; i < b.N; i++ {
		suitable = 0
		for _, m := range crit.Ranked(pcm.Families()) {
			m := m
			if crit.Suitable(&m) {
				suitable++
			}
		}
	}
	b.ReportMetric(float64(suitable), "suitable_families")
}

// ---------------------------------------------------------------------------
// Figure 4 / Section 3.

func BenchmarkFig4Validation(b *testing.B) {
	b.ReportAllocs()
	s := core.NewStudy()
	var diff float64
	for i := 0; i < b.N; i++ {
		v, err := s.RunValidation()
		if err != nil {
			b.Fatal(err)
		}
		diff = v.SteadyMeanAbsDiffC
	}
	b.ReportMetric(diff, "steady_diff_degC") // paper: 0.22
}

// ---------------------------------------------------------------------------
// Figure 7.

func benchSweep(b *testing.B, cfg *server.Config) {
	b.ReportAllocs()
	var rise float64
	for i := 0; i < b.N; i++ {
		pts, err := server.BlockageSweep(cfg, server.DefaultBlockages())
		if err != nil {
			b.Fatal(err)
		}
		rise = pts[len(pts)-1].OutletC - pts[0].OutletC
	}
	b.ReportMetric(rise, "outlet_rise_at_90pct_degC")
}

func BenchmarkFig7Blockage1U(b *testing.B)  { benchSweep(b, server.OneU()) } // paper: +14 degC
func BenchmarkFig7Blockage2U(b *testing.B)  { benchSweep(b, server.TwoU()) } // paper: unsafe
func BenchmarkFig7BlockageOCP(b *testing.B) { benchSweep(b, server.OpenCompute()) }

// ---------------------------------------------------------------------------
// Figure 10.

func BenchmarkFig10Trace(b *testing.B) {
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		tr, err := workload.Generate(workload.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		peak, _ = tr.Total.Peak()
	}
	b.ReportMetric(peak*100, "peak_util_pct") // normalized to 95
}

// ---------------------------------------------------------------------------
// Figure 11 / Section 5.1.

func benchCooling(b *testing.B, m core.MachineClass) {
	b.ReportAllocs()
	var red float64
	for i := 0; i < b.N; i++ {
		// A fresh Study per iteration: a reused one would answer from its
		// result cache after the first.
		b.StopTimer()
		s := core.NewStudy()
		b.StartTimer()
		r, err := s.RunCoolingStudy(m)
		if err != nil {
			b.Fatal(err)
		}
		red = r.Analysis.PeakReduction
	}
	b.ReportMetric(red*100, "peak_cooling_reduction_pct")
}

func BenchmarkFig11CoolingLoad1U(b *testing.B)  { benchCooling(b, core.OneU) }        // paper: 8.9
func BenchmarkFig11CoolingLoad2U(b *testing.B)  { benchCooling(b, core.TwoU) }        // paper: 12
func BenchmarkFig11CoolingLoadOCP(b *testing.B) { benchCooling(b, core.OpenCompute) } // paper: 8.3

// ---------------------------------------------------------------------------
// Figure 12 / Section 5.2.

func benchThroughput(b *testing.B, m core.MachineClass) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		// A fresh Study per iteration: a reused one would answer from its
		// result cache after the first.
		b.StopTimer()
		s := core.NewStudy()
		b.StartTimer()
		r, err := s.RunThroughputStudy(m)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.PeakGain
	}
	b.ReportMetric(gain*100, "peak_throughput_gain_pct")
}

func BenchmarkFig12Throughput1U(b *testing.B)  { benchThroughput(b, core.OneU) }        // paper: 33
func BenchmarkFig12Throughput2U(b *testing.B)  { benchThroughput(b, core.TwoU) }        // paper: 69
func BenchmarkFig12ThroughputOCP(b *testing.B) { benchThroughput(b, core.OpenCompute) } // paper: 34

// ---------------------------------------------------------------------------
// Table 2 and the Section 5 economics.

func BenchmarkTable2TCOScenarios(b *testing.B) {
	b.ReportAllocs()
	p := tco.PaperParams()
	var savings float64
	for i := 0; i < b.N; i++ {
		s, err := tco.SmallerCoolingSystem(p, 10000, 19152, 0.12)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tco.RetrofitSavings(p, 10000, 0.12); err != nil {
			b.Fatal(err)
		}
		d := tco.Datacenter{CriticalPowerKW: 10000, Servers: 19152, ServerCostUSD: 7000, WaxCostPerServerUSD: 5}
		if _, err := tco.TCOEfficiency(p, d, 0.69); err != nil {
			b.Fatal(err)
		}
		savings = s.AnnualUSD
	}
	b.ReportMetric(savings/1000, "cooling_savings_kUSD_per_yr") // paper: 254
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md): design choices isolated.

// BenchmarkAblationIdealCapWax replaces the hA-limited physical wax with an
// ideal energy-only cap: the upper bound a rate-unconstrained PCM could
// reach. Comparing its metric with BenchmarkFig11CoolingLoad1U quantifies
// how much the convective coupling costs.
func BenchmarkAblationIdealCapWax(b *testing.B) {
	b.ReportAllocs()
	cfg := server.OneU()
	tr := workload.GoogleTwoDay()
	cluster, err := dcsim.NewCluster(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	base, err := cluster.RunCoolingLoad(tr, false)
	if err != nil {
		b.Fatal(err)
	}
	waxJ := cluster.ROM.LatentCapacity() * float64(cluster.N)
	peak, _ := base.CoolingLoadW.Peak()
	var red float64
	for i := 0; i < b.N; i++ {
		// Ideal cap: the lowest ceiling whose daily overflow energy fits
		// in the wax (bisection; resolidification assumed free overnight).
		lo, hi := 0.0, peak
		for iter := 0; iter < 50; iter++ {
			mid := (lo + hi) / 2
			if base.CoolingLoadW.EnergyAbove(mid)/2 <= waxJ { // per day
				hi = mid
			} else {
				lo = mid
			}
		}
		red = 1 - hi/peak
	}
	b.ReportMetric(red*100, "ideal_cap_reduction_pct")
}

// BenchmarkAblationFixedFlow removes the fan-curve/grille interaction
// (flow pinned at nominal regardless of blockage): the outlet rise then
// comes only from convection loss, showing how much of Figure 7 is the
// operating-point shift.
func BenchmarkAblationFixedFlow(b *testing.B) {
	b.ReportAllocs()
	cfg := server.TwoU()
	var rise float64
	for i := 0; i < b.N; i++ {
		build, err := server.BuildModel(cfg, server.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		build.Model.FlowFunc = func(float64) float64 { return cfg.NominalFlow }
		if _, err := build.Model.SolveSteadyState(1e-6, 0); err != nil {
			b.Fatal(err)
		}
		rise = build.Outlet.AirTemperature() - cfg.InletC
	}
	b.ReportMetric(rise, "outlet_rise_fixed_flow_degC")
}

// BenchmarkAblationEventVsFluid runs the discrete-event DCSim core over a
// shortened trace; its utilization agreement with the driving trace is the
// justification for the fluid extrapolation used at cluster scale.
func BenchmarkAblationEventVsFluid(b *testing.B) {
	b.ReportAllocs()
	opts := workload.DefaultOptions()
	opts.Days = 1
	tr, err := workload.Generate(opts)
	if err != nil {
		b.Fatal(err)
	}
	ev := dcsim.DefaultEventOptions()
	ev.Servers = 20
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := dcsim.RunEvents(tr, ev)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Utilization.Mean()
	}
	b.ReportMetric(mean*100, "event_mean_util_pct") // trace mean: 50
}

// BenchmarkAblationHysteresisOff disables freeze supercooling: release
// begins the moment the air cools, which hands back the shoulder-hours
// release spike the hysteresis suppresses.
func BenchmarkAblationHysteresisOff(b *testing.B) {
	b.ReportAllocs()
	cfg := server.OneU()
	tr := workload.GoogleTwoDay()
	var red float64
	for i := 0; i < b.N; i++ {
		mat := pcm.ValidationParaffin()
		mat.MeltingPointC = cfg.Wax.DefaultMeltC
		mat.FreezeHysteresisK = 0
		enc, err := pcm.NewEnclosure(mat, cfg.Wax.Box, cfg.Wax.Count, cfg.Wax.FillFraction)
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := dcsim.NewCluster(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		base, err := cluster.RunCoolingLoad(tr, false)
		if err != nil {
			b.Fatal(err)
		}
		// Hand-rolled wax loop with the hysteresis-free material.
		state, err := pcm.NewState(enc, cluster.ROM.WakeAirC(0, 1))
		if err != nil {
			b.Fatal(err)
		}
		peakWith := 0.0
		dt := tr.Total.Step
		for j, u := range tr.Total.Values {
			power := cfg.PowerAt(u, 1)
			q := state.ExchangeWithAir(cluster.ROM.WakeAirC(u, 1), cluster.ROM.HA, dt)
			load := (power - q/dt) * float64(cluster.N)
			if load > peakWith {
				peakWith = load
			}
			_ = j
		}
		pb, _ := base.CoolingLoadW.Peak()
		red = 1 - peakWith/pb
	}
	b.ReportMetric(red*100, "no_hysteresis_reduction_pct")
}

// ---------------------------------------------------------------------------
// Facade sanity: the public API exposes working entry points.

func BenchmarkFacadeQuickstart(b *testing.B) {
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		study := NewStudy()
		r, err := study.RunCoolingStudy(TwoU)
		if err != nil {
			b.Fatal(err)
		}
		peak = r.Analysis.PeakReduction
	}
	b.ReportMetric(peak*100, "facade_2u_reduction_pct")
}

// A tiny compile-time check that the electricity tariff helpers stay
// reachable through public packages used by the examples.
var _ = cooling.DefaultTariff
var _ = units.Hour

// BenchmarkAblationDVFSLadder compares the paper's binary
// nominal-or-1.6GHz policy with a fine-grained ladder: the metric is the
// extra daily throughput (percent) the ladder recovers for the throttled
// (no-wax) cluster.
func BenchmarkAblationDVFSLadder(b *testing.B) {
	b.ReportAllocs()
	cfg := server.TwoU()
	cluster, err := dcsim.NewCluster(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.GoogleTwoDay()
	limit := float64(cluster.N) * (cfg.PowerAt(0.95, 1) - 80)
	var gainPct float64
	for i := 0; i < b.N; i++ {
		binary, err := cluster.RunConstrained(tr, limit)
		if err != nil {
			b.Fatal(err)
		}
		ladder, err := cluster.RunConstrainedOpts(tr, dcsim.ConstrainedOptions{
			LimitW:        limit,
			DVFSLadderGHz: []float64{1.8, 2.0, 2.2, 2.4, 2.6},
		})
		if err != nil {
			b.Fatal(err)
		}
		gainPct = (ladder.NoWax.Integral()/binary.NoWax.Integral() - 1) * 100
	}
	b.ReportMetric(gainPct, "ladder_throughput_gain_pct")
}

// BenchmarkAblationCRACvsLimit runs the physically-coupled CRAC/room
// formulation of the constrained scenario; its peak-gain metric lands next
// to BenchmarkFig12Throughput2U's, validating the power-limit abstraction
// the headline experiment uses.
func BenchmarkAblationCRACvsLimit(b *testing.B) {
	b.ReportAllocs()
	cfg := server.TwoU()
	cluster, err := dcsim.NewCluster(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.GoogleTwoDay()
	opts := dcsim.CRACOptions{
		CapacityW:         float64(cluster.N) * (cfg.PowerAt(0.95, 1) - 55),
		RoomCapacityJPerK: 40e3 * float64(cluster.N),
		SetpointC:         25,
		InletLimitC:       32,
	}
	ceiling := 0.95 * float64(cluster.N) * cfg.Perf.RelativeThroughput(cfg.Perf.DownclockGHz)
	var gain float64
	for i := 0; i < b.N; i++ {
		run, err := cluster.RunConstrainedCRAC(tr, opts, true)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := run.Throughput.Peak()
		gain = (p/ceiling - 1) * 100
	}
	b.ReportMetric(gain, "crac_peak_gain_pct") // limit abstraction: ~69
}
