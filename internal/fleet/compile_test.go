package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// rampScaler is a deterministic, allocation-free reactive controller for
// the compile-pass tests: it caps wax racks by their remaining latent
// buffer and backs the throttle trigger off with demand, so closed-loop
// control actually actuates during the equivalence run.
type rampScaler struct{}

func (rampScaler) Name() string    { return "ramp" }
func (rampScaler) Reset(ScaleInfo) {}
func (rampScaler) Control(tS, dtS, demand float64, racks []RackView, ceil []float64) float64 {
	for i, r := range racks {
		if r.HasWax {
			ceil[i] = 0.6 + 0.4*r.WaxRemaining
		}
	}
	return -0.2 * demand
}

// twoDayTrace is the equivalence-test workload: long enough to melt and
// refreeze the wax across two diurnal cycles.
func twoDayTrace(t testing.TB) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Options{
		Days: 2, StepS: 600, Seed: 11, MeanUtil: 0.55, PeakUtil: 0.95, NoiseAmp: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func bitsEqualSeries(a, b *timeseries.Series) (int, bool) {
	if (a == nil) != (b == nil) {
		return -1, false
	}
	if a == nil {
		return 0, true
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return i, false
		}
	}
	return 0, true
}

// requireRunsIdentical asserts every physical output of two runs is
// bit-identical (execution metadata — Workers — excluded).
func requireRunsIdentical(t *testing.T, name string, want, got *Run) {
	t.Helper()
	for _, s := range []struct {
		field string
		w, g  *timeseries.Series
	}{
		{"PowerW", want.PowerW, got.PowerW},
		{"CoolingLoadW", want.CoolingLoadW, got.CoolingLoadW},
		{"WaxLiquid", want.WaxLiquid, got.WaxLiquid},
		{"InletRiseC", want.InletRiseC, got.InletRiseC},
		{"ThrottledRacks", want.ThrottledRacks, got.ThrottledRacks},
		{"CeilMean", want.CeilMean, got.CeilMean},
	} {
		if i, ok := bitsEqualSeries(s.w, s.g); !ok {
			t.Errorf("%s: %s diverges at epoch %d", name, s.field, i)
		}
	}
	for _, v := range []struct {
		field string
		w, g  float64
	}{
		{"AbsorbedJ", want.AbsorbedJ, got.AbsorbedJ},
		{"ReleasedJ", want.ReleasedJ, got.ReleasedJ},
		{"ShedServerSeconds", want.ShedServerSeconds, got.ShedServerSeconds},
		{"ThrottleOnsetS", want.ThrottleOnsetS, got.ThrottleOnsetS},
		{"ThrottledServerSeconds", want.ThrottledServerSeconds, got.ThrottledServerSeconds},
	} {
		if math.Float64bits(v.w) != math.Float64bits(v.g) {
			t.Errorf("%s: %s = %v, want %v", name, v.field, v.g, v.w)
		}
	}
	for r := range want.RackPeakCoolingW {
		if math.Float64bits(want.RackPeakCoolingW[r]) != math.Float64bits(got.RackPeakCoolingW[r]) {
			t.Errorf("%s: RackPeakCoolingW[%d] = %v, want %v",
				name, r, got.RackPeakCoolingW[r], want.RackPeakCoolingW[r])
			break
		}
	}
	if want.FaultEvents != got.FaultEvents {
		t.Errorf("%s: FaultEvents = %d, want %d", name, got.FaultEvents, want.FaultEvents)
	}
	if want.AutoscaleEpochs != got.AutoscaleEpochs {
		t.Errorf("%s: AutoscaleEpochs = %d, want %d", name, got.AutoscaleEpochs, want.AutoscaleEpochs)
	}
}

// slowOracle is the reference path the fused kernel is pinned against: one
// *pcm.State per wax rack, stepped rack by rack through the pointer-based
// state machine and Config.PowerAt. Installed as the fleet's shardStep
// seam, it advances its own states, rebuilds a rack's state on the
// degraded enclosure when a wax-degrade event lowers the rack's retention,
// and writes the flat scalars back so the sequential section reads the
// oracle's wax. With a registry it instruments every state, so phase
// telemetry comes from the pcm.State tracker, emitted from the workers.
type slowOracle struct {
	f         *Fleet
	reg       *obs.Registry
	waxes     []*pcm.State
	retention []float64
}

func installSlowOracle(t testing.TB, f *Fleet, reg *obs.Registry) {
	t.Helper()
	o := &slowOracle{
		f:         f,
		reg:       reg,
		waxes:     make([]*pcm.State, len(f.racks)),
		retention: make([]float64, len(f.racks)),
	}
	for i, rk := range f.racks {
		o.retention[i] = 1
		if rk.rom == nil {
			continue
		}
		wax, err := rk.rom.NewWaxState()
		if err != nil {
			t.Fatal(err)
		}
		wax.Instrument(reg, o.label(i))
		o.waxes[i] = wax
	}
	f.shardStep = func(lo, hi int, t, dt float64, st *runState) {
		for r := lo; r < hi; r++ {
			o.stepRack(r, t, dt, st)
		}
	}
}

func (o *slowOracle) label(r int) string {
	return fmt.Sprintf("%s/rack%d", o.f.racks[r].cfg.Name, r)
}

// stepRack advances one rack by one epoch on the oracle's own state.
func (o *slowOracle) stepRack(r int, t, dt float64, st *runState) {
	rk := &o.f.racks[r]
	buf := st.buf
	wax := o.waxes[r]
	if wax != nil && st.retention[r] != o.retention[r] {
		o.retention[r] = st.retention[r]
		orig := rk.rom.Enclosure
		enc, err := pcm.NewEnclosure(orig.Material, orig.Box, orig.Count, orig.FillFraction*st.retention[r])
		if err != nil {
			panic(err)
		}
		enc.MeshConductivityBoost = orig.MeshConductivityBoost
		if wax, err = pcm.NewState(enc, wax.Temperature()); err != nil {
			panic(err)
		}
		wax.Instrument(o.reg, o.label(r))
		o.waxes[r] = wax
	}
	defer func() {
		if wax != nil {
			st.wEnthalpy[r], st.wRefC[r], st.wMass[r], st.wShell[r] = wax.Flat()
		}
	}()
	live := 1 - st.capLost[r]
	if live <= 0 {
		buf.powerW[r] = 0
		buf.coolingW[r] = 0
		if wax != nil {
			buf.liquid[r] = wax.LiquidFraction()
		}
		return
	}
	u := buf.assign[r] / live
	if u > 1 {
		u = 1
	}
	scale := float64(rk.servers) * live
	power := rk.cfg.PowerAt(u, 1)
	coolingPerServer := power
	if wax != nil {
		wax.SetSimTime(t)
		wake := rk.rom.WakeAirC(u, 1)
		if st.roomRise != 0 || st.flowLoss[r] != 0 {
			rise := wake - rk.cfg.InletC
			wake = rk.cfg.InletC + st.roomRise + rise/(1-st.flowLoss[r])
		}
		q := wax.ExchangeWithAir(wake, rk.rom.HA*st.haScale[r], dt)
		coolingPerServer = power - q/dt
		if q > 0 {
			buf.absorbed[r] += q * scale
		} else {
			buf.released[r] -= q * scale
		}
		buf.liquid[r] = wax.LiquidFraction()
	}
	buf.powerW[r] = power * scale
	buf.coolingW[r] = coolingPerServer * scale
}

// equivalenceRun runs the compile-pass equivalence scenario: a faulted,
// autoscaled two-day run over every fault kind the kernel handles (chiller
// trip, fan and wax degradation, capacity loss, sensor faults, surge) plus
// closed-loop ceilings. reg is attached to the fleet; with oracle set the
// epochs step through slowOracle, instrumented with oracleReg.
func equivalenceRun(t *testing.T, workers int, reg *obs.Registry, oracle bool, oracleReg *obs.Registry) *Run {
	t.Helper()
	sched := mustSchedule(t, `
		3h chiller-trip for 45m
		6h rack 1 fan-degrade 0.5 for 8h
		8h rack 2 wax-degrade 0.6
		9h rack 3 capacity-loss 0.7 for 6h
		11h rack 4 sensor-stuck for 2h
		13h rack 5 sensor-drop for 3h
		20h surge 1.4 for 2h
		30h class 0 wax-degrade 0.8
		33h chiller-trip for 30m
	`)
	f, err := New(Config{
		Classes: []ClassSpec{
			{Cfg: server.OneU(), Racks: 9, WithWax: true, ROM: testROM(t)},
			{Cfg: server.OneU(), Racks: 5},
		},
		Policy:  FaultAware{},
		Workers: workers,
		Faults:  sched,
		Scaler:  rampScaler{},
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		installSlowOracle(t, f, oracleReg)
	}
	run, err := f.Run(twoDayTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestCompiledMatchesSlow pins the kernel equivalence: the struct-of-arrays
// kernel reproduces the per-rack pcm.State oracle bit for bit over the
// faulted, autoscaled two-day run, at worker counts 1 and 8, with and
// without a telemetry registry attached.
func TestCompiledMatchesSlow(t *testing.T) {
	ref := equivalenceRun(t, 1, nil, true, nil)
	if ref.FaultEvents == 0 || ref.AutoscaleEpochs == 0 {
		t.Fatalf("reference run did not exercise faults (%d) or autoscaling (%d)",
			ref.FaultEvents, ref.AutoscaleEpochs)
	}
	if math.IsNaN(ref.ThrottleOnsetS) {
		t.Fatal("reference run never throttled; scenario too mild to pin ride-through")
	}
	requireRunsIdentical(t, "reference w=8", ref, equivalenceRun(t, 8, nil, true, nil))
	for _, workers := range []int{1, 8} {
		requireRunsIdentical(t, fmt.Sprintf("compiled w=%d", workers), ref,
			equivalenceRun(t, workers, nil, false, nil))
		requireRunsIdentical(t, fmt.Sprintf("observed w=%d", workers), ref,
			equivalenceRun(t, workers, obs.New(), false, nil))
	}
}

// phaseCounters are the transition counters both telemetry paths feed.
var phaseCounters = []string{"pcm.melt_started", "pcm.melt_completed", "pcm.freeze_started", "pcm.freeze_completed"}

type telemetryEvent struct {
	kind, name   string
	tBits, vBits uint64
}

func phaseEvents(reg *obs.Registry) []telemetryEvent {
	var out []telemetryEvent
	for _, e := range reg.Events().Events() {
		out = append(out, telemetryEvent{e.Kind, e.Name, math.Float64bits(e.SimTimeS), math.Float64bits(e.Value)})
	}
	return out
}

// TestDerivedWaxTelemetryMatchesOracle pins the wax telemetry the epoch
// merge derives against what instrumented pcm.States emit on the same
// faulted, autoscaled run: equal transition counters and the same
// (kind, label, time, enthalpy) events as a multiset — the oracle records
// from worker goroutines, so its order is not defined — and an event
// sequence that is identical at 1 and 8 workers.
func TestDerivedWaxTelemetryMatchesOracle(t *testing.T) {
	oracleReg := obs.New()
	equivalenceRun(t, 8, nil, true, oracleReg)
	want := oracleReg.Snapshot().Counters

	regs := map[int]*obs.Registry{1: obs.New(), 8: obs.New()}
	for workers, reg := range regs {
		equivalenceRun(t, workers, reg, false, nil)
		got := reg.Snapshot().Counters
		for _, name := range phaseCounters {
			if got[name] != want[name] {
				t.Errorf("w=%d: %s = %d, oracle %d", workers, name, got[name], want[name])
			}
			if want[name] == 0 {
				t.Errorf("oracle run never counted %s; scenario too mild to pin it", name)
			}
		}
	}

	if l := oracleReg.Events(); uint64(l.Len()) != l.Total() {
		t.Fatalf("oracle event log overflowed (%d of %d kept)", l.Len(), l.Total())
	}
	wantEvents := phaseEvents(oracleReg)
	sorted := func(evs []telemetryEvent) []telemetryEvent {
		out := append([]telemetryEvent(nil), evs...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.tBits != b.tBits {
				return math.Float64frombits(a.tBits) < math.Float64frombits(b.tBits)
			}
			if a.name != b.name {
				return a.name < b.name
			}
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			return a.vBits < b.vBits
		})
		return out
	}
	seq1, seq8 := phaseEvents(regs[1]), phaseEvents(regs[8])
	if !reflect.DeepEqual(sorted(seq1), sorted(wantEvents)) {
		t.Errorf("derived events differ from the oracle's:\n got %v\nwant %v", sorted(seq1), sorted(wantEvents))
	}
	if !reflect.DeepEqual(seq1, seq8) {
		t.Errorf("event sequence depends on the worker count:\nw=1 %v\nw=8 %v", seq1, seq8)
	}
}

// TestCompiledZeroAllocsPerEpoch pins the steady-state epoch path of the
// compiled kernel at zero allocations: the total allocation counts of a
// one-day and a two-day run differ only by their fixed setup cost, so the
// per-epoch difference must vanish. Measured with the thermally-aware
// policy and a reactive autoscaler in the loop, workers > 1.
func TestCompiledZeroAllocsPerEpoch(t *testing.T) {
	mkFleet := func() *Fleet {
		f, err := New(Config{
			Classes: []ClassSpec{
				{Cfg: server.OneU(), Racks: 6, WithWax: true, ROM: testROM(t)},
				{Cfg: server.OneU(), Racks: 3},
			},
			Policy:  ThermalAware{},
			Workers: 2,
			Scaler:  rampScaler{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mkTrace := func(days int) *workload.Trace {
		tr, err := workload.Generate(workload.Options{
			Days: days, StepS: 600, Seed: 7, MeanUtil: 0.5, PeakUtil: 0.95, NoiseAmp: 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	f := mkFleet()
	short, long := mkTrace(1), mkTrace(2)
	run := func(tr *workload.Trace) func() {
		return func() {
			if _, err := f.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	aShort := testing.AllocsPerRun(5, run(short))
	aLong := testing.AllocsPerRun(5, run(long))
	extra := long.Total.Len() - short.Total.Len()
	if perEpoch := (aLong - aShort) / float64(extra); perEpoch >= 0.05 {
		t.Errorf("epoch steady state allocates %.3f/epoch (short run %v, long run %v over %d extra epochs), want 0",
			perEpoch, aShort, aLong, extra)
	}
}

// TestMillionServerSmoke runs a heterogeneous million-server fleet —
// 12,500 wax racks and 12,500 bare racks of 40 servers each — through a
// short trace on the compiled kernel. The full two-day interactive-scale
// witness lives in BenchmarkFleetMillionServers; this pins that the
// compile pass actually holds up at fleet scale (and leans on the
// class-level dedup: 25k racks share two compiled classes).
func TestMillionServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-server fleet in -short mode")
	}
	const racksPerClass = 12500
	f, err := New(Config{
		Classes: []ClassSpec{
			{Cfg: server.OneU(), Racks: racksPerClass, WithWax: true, ROM: testROM(t)},
			{Cfg: server.OneU(), Racks: racksPerClass},
		},
		Policy: ThermalAware{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Servers() != 1_000_000 {
		t.Fatalf("fleet has %d servers, want 1,000,000", f.Servers())
	}
	tr, err := workload.Generate(workload.Options{
		Days: 1, StepS: 7200, Seed: 3, MeanUtil: 0.6, PeakUtil: 0.9, NoiseAmp: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := f.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range run.PowerW.Values {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("PowerW[%d] = %v, want positive finite", i, v)
		}
	}
	if peak, _ := run.WaxLiquid.Peak(); !(peak > 0) {
		t.Errorf("wax never melted at 1M-server scale (peak liquid %v)", peak)
	}
}
