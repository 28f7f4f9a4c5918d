package fleet

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/workload"
)

// stepIndex maps a sim time to its epoch index in the test trace.
func stepIndex(tr *workload.Trace, t float64) int {
	return int((t - tr.Total.Start) / tr.Total.Step)
}

func mustSchedule(t testing.TB, scenario string) *faults.Schedule {
	t.Helper()
	s, err := faults.ParseScheduleString(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRemainingFractionZeroLatent pins the divide-by-zero guard: a rack
// whose latent capacity is zero (no wax, or wax fully degraded away) must
// report zero remaining fraction, not NaN.
func TestRemainingFractionZeroLatent(t *testing.T) {
	if got := waxRemaining(0, 0); got != 0 {
		t.Errorf("waxRemaining(0, 0) = %v, want 0", got)
	}
	if got := waxRemaining(0.5, -1); got != 0 {
		t.Errorf("waxRemaining(0.5, -1) = %v, want 0", got)
	}
	rom := testROM(t)
	wax, err := rom.NewWaxState()
	if err != nil {
		t.Fatal(err)
	}
	if got := waxRemaining(wax.LiquidFraction(), 0); got != 0 || math.IsNaN(got) {
		t.Errorf("waxRemaining(fresh, 0) = %v, want 0", got)
	}
	if got := waxRemaining(wax.LiquidFraction(), rom.LatentCapacity()); got <= 0 || got > 1 {
		t.Errorf("fresh wax remaining fraction %v outside (0, 1]", got)
	}
}

// TestConfigValidateNamesField checks Validate points at the offending
// field, including the fault-schedule and degradation checks New routes
// through it.
func TestConfigValidateNamesField(t *testing.T) {
	oneRack := []ClassSpec{{Cfg: server.OneU(), Racks: 1}}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"empty mix", Config{}, "empty mix"},
		{"negative workers", Config{Classes: oneRack, Workers: -2}, "negative worker count"},
		{"nil class config", Config{Classes: []ClassSpec{{Racks: 1}}}, "no server config"},
		{"zero racks", Config{Classes: []ClassSpec{{Cfg: server.OneU()}}}, "non-positive rack count"},
		{"bad throttle factor", Config{Classes: oneRack,
			Degrade: DegradeConfig{ThrottleFactor: 1.5}}, "throttle factor"},
		{"throttle below inlet", Config{Classes: oneRack,
			Degrade: DegradeConfig{ThrottleInletC: 10}}, "not above cold-aisle inlet"},
		{"fault targets missing rack", Config{Classes: oneRack,
			Faults: mustSchedule(t, "1h rack 5 fan-degrade 0.5")}, "rack 5"},
		{"fault targets missing class", Config{Classes: oneRack,
			Faults: mustSchedule(t, "1h class 3 capacity-loss 0.5")}, "class 3"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the config", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the field (%q)", c.name, err, c.want)
		}
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New accepted the config Validate rejects", c.name)
		}
	}
	good := Config{Classes: oneRack, Faults: mustSchedule(t, "1h chiller-trip for 30m")}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// cancelAfterPolicy cancels the run's context from inside the Nth
// balancer call, so cancellation lands mid-run with workers alive.
type cancelAfterPolicy struct {
	cancel context.CancelFunc
	calls  *int
	after  int
}

func (cancelAfterPolicy) Name() string { return "cancel-after" }
func (p cancelAfterPolicy) Assign(demand float64, racks []RackView, out []float64) {
	*p.calls++
	if *p.calls == p.after {
		p.cancel()
	}
	RoundRobin{}.Assign(demand, racks, out)
}

func TestRunContextCancellation(t *testing.T) {
	tr := testTrace(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	f, err := New(Config{
		Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 6}},
		Policy:  cancelAfterPolicy{cancel: cancel, calls: &calls, after: 5},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := f.RunContext(ctx, tr)
	if run != nil || err != context.Canceled {
		t.Fatalf("cancelled run returned (%v, %v), want (nil, context.Canceled)", run, err)
	}
	if calls >= tr.Total.Len() {
		t.Errorf("run consumed all %d epochs despite cancellation at epoch 5", calls)
	}
	// The worker goroutines must all have exited: poll briefly, since the
	// deferred join finishes just before RunContext returns but the
	// runtime may lag in its accounting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before run, %d after", before, got)
	}
}

func TestWorkerPanicNamesShard(t *testing.T) {
	f, err := New(Config{
		Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 8}},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.shardStep = func(lo, hi int, t, dt float64, st *runState) {
		if lo <= 5 && 5 < hi {
			panic("injected fault in rack step")
		}
		f.stepShard(lo, hi, t, dt, st)
	}
	run, err := f.Run(testTrace(t))
	if run != nil || err == nil {
		t.Fatal("panicking worker did not surface an error")
	}
	// Rack 5 lives in shard 2 of 4 (racks 4-5).
	for _, want := range []string{"shard 2", "racks 4-5", "panicked", "injected fault"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic error %q missing %q", err, want)
		}
	}
	// The fleet must stay usable: a clean run after the panic succeeds.
	f.shardStep = nil
	if _, err := f.Run(testTrace(t)); err != nil {
		t.Errorf("fleet unusable after recovered panic: %v", err)
	}
}

// TestLiquidFractionInvariant poisons one wax rack's enthalpy with NaN
// through the shardStep seam and requires the merge to stop the run with
// an error naming the rack, its class and the epoch time.
func TestLiquidFractionInvariant(t *testing.T) {
	f, err := New(Config{
		Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 4, WithWax: true}},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t)
	tPoison := tr.Total.TimeAt(5)
	f.shardStep = func(lo, hi int, t, dt float64, st *runState) {
		if t == tPoison && lo <= 2 && 2 < hi {
			st.wEnthalpy[2] = math.NaN()
		}
		f.stepShard(lo, hi, t, dt, st)
	}
	run, err := f.Run(tr)
	if run != nil || err == nil {
		t.Fatal("NaN liquid fraction did not stop the run")
	}
	for _, want := range []string{"rack 2 ", "(" + server.OneU().Name + ")", "NaN", fmt.Sprintf("t=%gs", tPoison)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("invariant error %q missing %q", err, want)
		}
	}
	f.shardStep = nil
	if _, err := f.Run(tr); err != nil {
		t.Errorf("clean run after the poisoned one: %v", err)
	}
}

func TestChillerTripThrottlesAndRecovers(t *testing.T) {
	tr := testTrace(t)
	f, err := New(Config{
		Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 4}},
		Faults:  mustSchedule(t, "10h chiller-trip for 45m"),
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := f.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if run.FaultEvents != 2 {
		t.Errorf("FaultEvents = %d, want trip + recover", run.FaultEvents)
	}
	if math.IsNaN(run.ThrottleOnsetS) {
		t.Fatal("room never crossed the throttle trigger during a 45m outage")
	}
	if run.ThrottleOnsetS < 10*3600 || run.ThrottleOnsetS > 10.75*3600 {
		t.Errorf("throttle onset %vs outside the outage window", run.ThrottleOnsetS)
	}
	if run.ThrottledServerSeconds <= 0 {
		t.Error("no throttled server-time recorded")
	}
	peak, _ := run.InletRiseC.Peak()
	if peak <= 0 {
		t.Error("no room excursion recorded")
	}
	// Throttling sheds the unplaceable work.
	if run.ShedServerSeconds <= 0 {
		t.Error("throttled fleet shed no work")
	}
	// Hours after recovery the room is back at the setpoint and racks run
	// unthrottled.
	last := run.InletRiseC.Len() - 1
	if rise := run.InletRiseC.Values[last]; rise > 0.5 {
		t.Errorf("room still %v degC above setpoint at end of day", rise)
	}
	if run.ThrottledRacks.Values[last] != 0 {
		t.Error("racks still throttled at end of day")
	}
}

// TestWaxExtendsRideThrough is the tentpole claim: under an identical
// chiller trip, the wax fleet's first throttle comes strictly later than
// the no-wax fleet's, because the melting wax absorbs part of the heat
// that would otherwise go into the room air.
func TestWaxExtendsRideThrough(t *testing.T) {
	rom := testROM(t)
	// The room crosses the throttle trigger within minutes of a trip, so
	// the coupled wax-room transient needs a finer step than the daily
	// trace tests use.
	tr, err := workload.Generate(workload.Options{
		Days: 1, StepS: 60, Seed: 7, MeanUtil: 0.5, PeakUtil: 0.95, NoiseAmp: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := mustSchedule(t, "5h chiller-trip for 2h")
	onset := func(withWax bool) float64 {
		cls := ClassSpec{Cfg: server.OneU(), Racks: 4}
		if withWax {
			cls.WithWax, cls.ROM = true, rom
		}
		f, err := New(Config{Classes: []ClassSpec{cls}, Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		run, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(run.ThrottleOnsetS) {
			t.Fatal("fleet rode out a 2h outage without throttling")
		}
		return run.ThrottleOnsetS
	}
	noWax, wax := onset(false), onset(true)
	if wax <= noWax {
		t.Errorf("wax throttle onset %vs not later than no-wax %vs", wax, noWax)
	}
}

func TestFaultRunDeterministicAcrossWorkers(t *testing.T) {
	rom := testROM(t)
	tr := testTrace(t)
	sched, err := faults.Generate(faults.DefaultGenOptions(42, tr.Total.End(), 8))
	if err != nil {
		t.Fatal(err)
	}
	mix := []ClassSpec{
		{Cfg: server.OneU(), Racks: 5, WithWax: true, ROM: rom},
		{Cfg: server.OneU(), Racks: 3},
	}
	var runs []*Run
	for _, workers := range []int{1, 8} {
		f, err := New(Config{Classes: mix, Policy: FaultAware{}, Workers: workers, Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		run, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	a, b := runs[0], runs[1]
	if !reflect.DeepEqual(a.PowerW.Values, b.PowerW.Values) {
		t.Error("PowerW differs between workers=1 and workers=8 under faults")
	}
	if !reflect.DeepEqual(a.CoolingLoadW.Values, b.CoolingLoadW.Values) {
		t.Error("CoolingLoadW differs between workers=1 and workers=8 under faults")
	}
	if !reflect.DeepEqual(a.InletRiseC.Values, b.InletRiseC.Values) {
		t.Error("InletRiseC differs between workers=1 and workers=8 under faults")
	}
	if !reflect.DeepEqual(a.ThrottledRacks.Values, b.ThrottledRacks.Values) {
		t.Error("ThrottledRacks differs between worker counts")
	}
	if a.ShedServerSeconds != b.ShedServerSeconds ||
		a.ThrottledServerSeconds != b.ThrottledServerSeconds ||
		a.FaultEvents != b.FaultEvents {
		t.Error("ride-through metrics differ between worker counts")
	}
	onsetEqual := a.ThrottleOnsetS == b.ThrottleOnsetS ||
		(math.IsNaN(a.ThrottleOnsetS) && math.IsNaN(b.ThrottleOnsetS))
	if !onsetEqual {
		t.Errorf("throttle onset differs: %v vs %v", a.ThrottleOnsetS, b.ThrottleOnsetS)
	}
}

func TestCapacityLossShedsUnderRoundRobin(t *testing.T) {
	tr := testTrace(t)
	run := func(scenario string) *Run {
		var sched *faults.Schedule
		if scenario != "" {
			sched = mustSchedule(t, scenario)
		}
		f, err := New(Config{
			Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 4}},
			Faults:  sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	healthy := run("")
	if healthy.ShedServerSeconds != 0 {
		t.Fatalf("healthy round-robin fleet shed %v server-seconds", healthy.ShedServerSeconds)
	}
	// Half the servers of every rack offline across the midday peak: a
	// fault-oblivious balancer cannot place the peak and sheds.
	faulted := run("10h all capacity-loss 0.5 for 4h")
	if faulted.ShedServerSeconds <= 0 {
		t.Error("capacity loss at peak shed no work")
	}
	peakHealthy, _ := healthy.PowerW.Peak()
	peakFaulted, _ := faulted.PowerW.Peak()
	if peakFaulted >= peakHealthy {
		t.Errorf("power peak with half the fleet offline (%v W) not below healthy (%v W)",
			peakFaulted, peakHealthy)
	}
}

func TestSurgeRaisesPower(t *testing.T) {
	tr := testTrace(t)
	build := func(scenario string) *Run {
		var sched *faults.Schedule
		if scenario != "" {
			sched = mustSchedule(t, scenario)
		}
		f, err := New(Config{
			Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 2}},
			Faults:  sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := build("")
	surged := build("2h surge 1.4 for 3h")
	idx := stepIndex(tr, 3*3600)
	if surged.PowerW.Values[idx] <= base.PowerW.Values[idx] {
		t.Errorf("power during surge %v W not above nominal %v W",
			surged.PowerW.Values[idx], base.PowerW.Values[idx])
	}
	last := base.PowerW.Len() - 1
	if surged.PowerW.Values[last] != base.PowerW.Values[last] {
		t.Error("power after surge-end differs from nominal")
	}
}

func TestWaxDegradeCutsAbsorption(t *testing.T) {
	rom := testROM(t)
	tr := testTrace(t)
	build := func(scenario string) *Run {
		var sched *faults.Schedule
		if scenario != "" {
			sched = mustSchedule(t, scenario)
		}
		f, err := New(Config{
			Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 2, WithWax: true, ROM: rom}},
			Faults:  sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fresh := build("")
	degraded := build("0s all wax-degrade 0.4")
	if fresh.AbsorbedJ <= 0 {
		t.Fatal("fresh wax absorbed nothing over the day")
	}
	if degraded.AbsorbedJ >= fresh.AbsorbedJ {
		t.Errorf("degraded wax absorbed %v J, fresh %v J; degradation had no effect",
			degraded.AbsorbedJ, fresh.AbsorbedJ)
	}
}

// spyPolicy records the balancer's view of rack 0 each epoch.
type spyPolicy struct{ views *[]RackView }

func (spyPolicy) Name() string { return "spy" }
func (p spyPolicy) Assign(demand float64, racks []RackView, out []float64) {
	*p.views = append(*p.views, racks[0])
	RoundRobin{}.Assign(demand, racks, out)
}

func TestSensorFaultsBlindTheBalancer(t *testing.T) {
	rom := testROM(t)
	tr := testTrace(t)
	var views []RackView
	f, err := New(Config{
		Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 2, WithWax: true, ROM: rom}},
		Policy:  spyPolicy{views: &views},
		Faults:  mustSchedule(t, "8h rack 0 sensor-stuck\n12h rack 0 sensor-drop\n16h rack 0 sensor-recover"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(tr); err != nil {
		t.Fatal(err)
	}
	at := func(hours float64) RackView { return views[stepIndex(tr, hours*3600)] }
	// Stuck: the utilization reading freezes at its pre-fault value even
	// though the trace keeps moving.
	stuckThen, stuckLater := at(8.5), at(11)
	if stuckThen.Utilization != stuckLater.Utilization {
		t.Errorf("stuck sensor reading moved: %v then %v",
			stuckThen.Utilization, stuckLater.Utilization)
	}
	if stuckThen.SensorDead {
		t.Error("stuck sensor flagged dead — the balancer should not be able to tell")
	}
	// Dropped: flagged dead with zeroed readings.
	dropped := at(14)
	if !dropped.SensorDead || dropped.WaxRemaining != 0 {
		t.Errorf("dropped sensor view = %+v, want dead with zero readings", dropped)
	}
	// Recovered: live readings again, tracking the trace.
	recA, recB := at(17), at(20)
	if recA.SensorDead || recA.Utilization == recB.Utilization {
		t.Errorf("recovered sensor not live: %+v vs %+v", recA, recB)
	}
}

func TestFaultAwareRespectsCeilings(t *testing.T) {
	// One rack throttled to 0.5, one healthy: FaultAware keeps the
	// throttled rack at or below its ceiling and spills the rest.
	views := []RackView{
		{Servers: 40, Throttled: true, Degraded: true, MaxUtil: 0.5},
		{Servers: 40},
	}
	out := make([]float64, 2)
	FaultAware{}.Assign(0.7, views, out)
	if out[0] > 0.5+1e-12 {
		t.Errorf("throttled rack assigned %v above its 0.5 ceiling", out[0])
	}
	placed := (out[0] + out[1]) * 40
	if math.Abs(placed-0.7*80) > 1e-9 {
		t.Errorf("placed %v server-units, want %v (work conservation)", placed, 0.7*80)
	}
	// Healthy fleet: reduces exactly to round robin.
	views = []RackView{{Servers: 40}, {Servers: 40}}
	FaultAware{}.Assign(0.6, views, out)
	if out[0] != 0.6 || out[1] != 0.6 {
		t.Errorf("healthy fault-aware assignment %v, want uniform 0.6", out)
	}
	// Thermally stressed rack (hot inlet, no wax left) gets less than the
	// pristine one.
	views = []RackView{
		{Servers: 40, HasWax: true, WaxRemaining: 0, InletRiseC: 5, FlowLost: 0.3},
		{Servers: 40, HasWax: true, WaxRemaining: 1},
	}
	FaultAware{}.Assign(0.5, views, out)
	if out[0] >= out[1] {
		t.Errorf("stressed rack got %v, pristine %v; want load steered away", out[0], out[1])
	}
}

// TestFaultAwareShedsLessUnderCapacityLoss shows the graceful-degradation
// payoff end to end: under the same capacity-loss fault, the fault-aware
// balancer sheds strictly less work than fault-oblivious round robin by
// moving load to the racks that still have room.
func TestFaultAwareShedsLessUnderCapacityLoss(t *testing.T) {
	tr := testTrace(t)
	shed := func(p Policy) float64 {
		f, err := New(Config{
			Classes: []ClassSpec{{Cfg: server.OneU(), Racks: 4}},
			Policy:  p,
			Faults:  mustSchedule(t, "9h rack 0 capacity-loss 0.8 for 6h"),
		})
		if err != nil {
			t.Fatal(err)
		}
		run, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return run.ShedServerSeconds
	}
	rr, fa := shed(RoundRobin{}), shed(FaultAware{})
	if rr <= 0 {
		t.Fatal("round robin shed nothing under a rack capacity loss at peak")
	}
	if fa >= rr {
		t.Errorf("fault-aware shed %v server-seconds, round robin %v; want strictly less", fa, rr)
	}
}
