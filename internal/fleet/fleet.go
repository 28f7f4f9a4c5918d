// Package fleet simulates a heterogeneous, thermally-aware datacenter
// fleet: racks of mixed server classes (wax-retrofitted and not), each
// rack advancing its own PCM state along a shared utilization trace, with
// a pluggable load-balancing policy deciding every rack's share of the
// work each epoch.
//
// The fluid engine in internal/dcsim performs the paper's §6
// extrapolation: one representative server multiplied out to the cluster.
// That construction cannot express heterogeneous populations, skewed load
// balancing, or placement that reacts to thermal state. This package
// composes the same per-server physics (the server ROM plus the PCM
// enthalpy state machine) into N racks with independent wax state so
// those effects become simulable. When the fleet is homogeneous and the
// policy is round-robin it reduces to the fluid engine — tests pin that
// equivalence, which anchors the new layer to the validated one.
//
// Runs optionally replay a faults.Schedule: chiller trips heat the room
// on its own thermal mass (the Garday & Housley emergency scenario) until
// racks throttle; fan degradation reduces a rack's airflow through the
// fan-curve solver; capacity loss takes servers offline; sensor faults
// blind the balancer; wax degradation derates the latent store; surges
// multiply demand. Graceful degradation — inlet-triggered throttling and
// fault-aware balancing — bounds the damage, and the run reports
// ride-through metrics (throttle onset, throttled server-seconds, shed
// work). All fault logic executes in the sequential part of the epoch
// loop, so faulted runs remain bit-identical across worker counts.
//
// Execution is sharded: racks are partitioned into contiguous shards, one
// per worker in a bounded pool (runtime.NumCPU() by default). Every trace
// step is an epoch in lockstep: the balancer runs sequentially against a
// consistent fleet snapshot frozen at the previous epoch's barrier, the
// workers step their shards concurrently, and a barrier closes the epoch
// before per-rack outputs are merged in rack-index order. Per-rack state
// is owned by exactly one worker and the merge order is fixed, so results
// are bit-identical regardless of the worker count. A panic inside a
// worker is recovered and surfaces as an error naming the shard; a
// cancelled context stops the run at the next epoch boundary with no
// goroutine leaks.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// ClassSpec describes one population of identical racks.
type ClassSpec struct {
	// Cfg is the server configuration; its ServersPerRack fixes the rack
	// population.
	Cfg *server.Config
	// Racks is the number of racks of this class; must be positive.
	Racks int
	// WithWax selects the PCM retrofit for this class's racks.
	WithWax bool
	// MeltC is the wax melting temperature (0 = the config default); only
	// consulted when a ROM has to be derived.
	MeltC float64
	// ROM optionally supplies a pre-derived reduced-order model so the
	// expensive derivation can be shared across fleets of the same class.
	// Nil derives one when WithWax is set.
	ROM *server.ROM
}

// Config assembles a fleet.
type Config struct {
	Classes []ClassSpec
	// Policy splits demand across racks; nil defaults to RoundRobin.
	Policy Policy
	// Workers bounds the stepping pool: 0 selects runtime.NumCPU(), and
	// the pool never exceeds the rack count. Negative is rejected.
	Workers int
	// Faults optionally injects a fault schedule into every run; nil runs
	// fault-free. Event rack and class targets are validated against the
	// fleet shape at build time.
	Faults *faults.Schedule
	// Degrade tunes the graceful-degradation response (throttle trigger,
	// room thermal mass); the zero value selects the defaults.
	Degrade DegradeConfig
	// Scaler optionally closes the control loop: consulted every epoch
	// in the sequential section (after the rack views refresh, before
	// the balancer) to scale per-rack utilization ceilings and back off
	// the throttle trigger. Nil runs open-loop.
	Scaler Scaler
	// Obs is the optional telemetry registry; nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
	// Recorder is the optional flight recorder: per-epoch fleet (and,
	// for small fleets, per-rack) telemetry captured in the sequential
	// tail of the epoch loop, so recorded runs stay bit-identical across
	// worker counts. A bare recorder gets default alert rules derived
	// from the degradation tuning. Nil disables recording at zero cost.
	Recorder *flightrec.Recorder
}

// Validate names the first bad field of the configuration: an empty mix,
// a class without a server config, a non-positive rack count, a negative
// worker count, a bad degradation tuning, or a fault schedule targeting
// racks or classes the fleet does not have.
func (c Config) Validate() error {
	if len(c.Classes) == 0 {
		return errors.New("fleet: no classes configured (empty mix)")
	}
	if c.Workers < 0 {
		return fmt.Errorf("fleet: negative worker count %d", c.Workers)
	}
	deg := c.Degrade.withDefaults()
	if err := c.Degrade.Validate(); err != nil {
		return err
	}
	racks := 0
	for ci, cl := range c.Classes {
		if cl.Cfg == nil {
			return fmt.Errorf("fleet: class %d has no server config", ci)
		}
		if cl.Racks <= 0 {
			return fmt.Errorf("fleet: class %d (%s): non-positive rack count %d",
				ci, cl.Cfg.Name, cl.Racks)
		}
		if err := cl.Cfg.Validate(); err != nil {
			return err
		}
		if deg.ThrottleInletC <= cl.Cfg.InletC {
			return fmt.Errorf("fleet: class %d (%s): throttle trigger %v degC not above cold-aisle inlet %v degC (racks would throttle permanently)",
				ci, cl.Cfg.Name, deg.ThrottleInletC, cl.Cfg.InletC)
		}
		racks += cl.Racks
	}
	if c.Faults != nil {
		if err := c.Faults.CheckTargets(racks, len(c.Classes)); err != nil {
			return err
		}
	}
	return nil
}

// rackSpec is the immutable description of one rack.
type rackSpec struct {
	class   int
	servers int
	cfg     *server.Config
	rom     *server.ROM // nil when the rack carries no wax
}

// Fleet is a validated, ROM-derived fleet ready to run. A Fleet is
// immutable after New: every Run creates fresh per-rack wax and fault
// state, so runs are independent and a single Fleet may be reused.
type Fleet struct {
	classes  []ClassSpec
	racks    []rackSpec
	policy   Policy
	workers  int
	servers  int
	faults   *faults.Schedule
	degrade  DegradeConfig
	reg      *obs.Registry
	recorder *flightrec.Recorder
	scaler   Scaler

	// comp is the struct-of-arrays lowering built at New (compile.go)
	// whose fused kernel every run executes.
	comp *compiled

	// maxInletC is the hottest class cold-aisle setpoint: the inlet that
	// crosses the throttle trigger first during a room excursion.
	maxInletC float64

	// shardStep, when set by a test, replaces stepShard in every worker:
	// the seam for the per-rack reference oracle and for injected panics.
	shardStep func(lo, hi int, t, dt float64, st *runState)
}

// New validates the configuration, derives any missing ROMs, and lays the
// racks out class-major (every rack of class 0, then class 1, ...).
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		classes:  cfg.Classes,
		policy:   cfg.Policy,
		faults:   cfg.Faults,
		degrade:  cfg.Degrade.withDefaults(),
		reg:      cfg.Obs,
		recorder: cfg.Recorder,
		scaler:   cfg.Scaler,
	}
	if f.policy == nil {
		f.policy = RoundRobin{}
	}
	f.workers = cfg.Workers
	if f.workers == 0 {
		f.workers = runtime.NumCPU()
	}
	for ci, cl := range cfg.Classes {
		rom := cl.ROM
		if cl.WithWax && rom == nil {
			var err error
			if rom, err = server.DeriveROMObserved(cl.Cfg, cl.MeltC, cfg.Obs); err != nil {
				return nil, err
			}
		}
		if !cl.WithWax {
			rom = nil
		}
		for r := 0; r < cl.Racks; r++ {
			f.racks = append(f.racks, rackSpec{
				class:   ci,
				servers: cl.Cfg.ServersPerRack,
				cfg:     cl.Cfg,
				rom:     rom,
			})
		}
		f.servers += cl.Racks * cl.Cfg.ServersPerRack
		if cl.Cfg.InletC > f.maxInletC {
			f.maxInletC = cl.Cfg.InletC
		}
	}
	if f.workers > len(f.racks) {
		f.workers = len(f.racks)
	}
	if err := f.compile(); err != nil {
		return nil, err
	}
	return f, nil
}

// Racks returns the fleet's rack count.
func (f *Fleet) Racks() int { return len(f.racks) }

// Servers returns the fleet's total server population.
func (f *Fleet) Servers() int { return f.servers }

// Workers returns the resolved stepping-pool size.
func (f *Fleet) Workers() int { return f.workers }

// Run is the outcome of one fleet simulation.
type Run struct {
	// PowerW is the fleet electrical draw (= raw heat generation), W.
	PowerW *timeseries.Series
	// CoolingLoadW is the heat the cooling system must remove: power
	// minus wax absorption plus wax release, summed over the racks. While
	// the chillers are tripped this heat lands in the room instead.
	CoolingLoadW *timeseries.Series
	// WaxLiquid is the server-weighted mean liquid fraction across the
	// wax racks (all zeros when the fleet carries none).
	WaxLiquid *timeseries.Series
	// InletRiseC is the room excursion over the cold-aisle setpoint
	// driven by chiller trips (all zeros in a fault-free run).
	InletRiseC *timeseries.Series
	// ThrottledRacks counts the racks throttled in each epoch.
	ThrottledRacks *timeseries.Series
	// AbsorbedJ and ReleasedJ total the wax energy flows over the run.
	AbsorbedJ, ReleasedJ float64
	// RackPeakCoolingW is each rack's own peak cooling load, in rack
	// order — the per-rack hotspot view the fluid engine cannot produce.
	RackPeakCoolingW []float64
	// ShedServerSeconds accumulates demanded work the policy could not
	// place (fleet saturated, capacity lost, or racks throttled), in
	// server-seconds.
	ShedServerSeconds float64
	// ThrottleOnsetS is the sim time at which the first rack inlet
	// crossed the throttle trigger, interpolated inside the epoch the
	// crossing landed in (NaN when the fleet never throttled). This is
	// the simulated ride-through clock the analytic emergency model is
	// cross-checked against.
	ThrottleOnsetS float64
	// ThrottledServerSeconds accumulates live server-time spent
	// throttled.
	ThrottledServerSeconds float64
	// FaultEvents counts the schedule events applied during the run.
	FaultEvents int
	// Policy and Workers record how the run was executed.
	Policy  string
	Workers int

	// Scaler names the autoscaler controller when one closed the loop
	// ("" for an open-loop run), AutoscaleEpochs counts the epochs in
	// which it capped at least one rack below its usable ceiling, and
	// CeilMean traces the rack-mean effective ceiling it imposed (nil
	// for open-loop runs; 1.0 wherever the controller held off).
	Scaler          string
	AutoscaleEpochs int
	CeilMean        *timeseries.Series
}

// epochBuf holds the per-rack scratch written by the shard workers during
// one epoch and read back by the merge step after the barrier.
type epochBuf struct {
	assign   []float64 // balancer output, read-only during the epoch
	powerW   []float64
	coolingW []float64
	liquid   []float64
	absorbed []float64 // accumulated across epochs, rack-local
	released []float64
}

// runState is the mutable state of one run: per-rack wax and fault
// levels, plus the room excursion. The sequential epoch-loop sections own
// it; workers read the per-rack slices for the racks of their shard only,
// and the epoch barrier orders every write against every read.
type runState struct {
	buf    *epochBuf
	latent []float64 // per-rack latent capacity, J (0 = no wax)

	// Flat wax state advanced by stepShard through the pcm.Flat*
	// primitives: the scalars pcm.State.Flat returns, one slot per rack,
	// zero for racks without wax.
	wEnthalpy []float64
	wRefC     []float64
	wMass     []float64
	wShell    []float64

	capLost     []float64 // fraction of the rack's servers offline
	flowLoss    []float64 // fraction of nominal airflow lost
	haScale     []float64 // wax convective conductance derate
	retention   []float64 // wax latent retention vs original
	sensorStuck []bool
	sensorDrop  []bool
	throttled   []bool
	maxU        []float64 // usable utilization ceiling this epoch
	ceil        []float64 // autoscaler per-rack ceiling scratch (nil open-loop)

	roomRise float64 // room excursion over setpoint, K
	roomCapJ float64 // room thermal mass frozen at the trip epoch, J/K
	trigOffC float64 // autoscaler throttle-trigger offset, <= 0, applied next epoch

	// Derived wax telemetry, set only when a registry is attached and the
	// fleet carries wax: each wax rack's melt state as of the last merge,
	// and the recorder its transitions go to.
	phase  []pcm.MeltState
	phases *pcm.PhaseRecorder
}

// Run advances the fleet along the trace. The trace's Total series is the
// fleet-wide demand as a fraction of total capacity.
func (f *Fleet) Run(tr *workload.Trace) (*Run, error) {
	return f.RunContext(context.Background(), tr)
}

// RunContext is Run with cooperative cancellation: the run stops at the
// next epoch boundary once ctx is done and returns ctx.Err(), with every
// worker goroutine joined before returning.
func (f *Fleet) RunContext(ctx context.Context, tr *workload.Trace) (*Run, error) {
	if tr == nil || tr.Total == nil || tr.Total.Len() == 0 {
		return nil, errors.New("fleet: empty trace")
	}
	n := tr.Total.Len()
	dt := tr.Total.Step
	duration := tr.Total.End() - tr.Total.Start
	sp := f.reg.StartSpan("fleet.run")
	sp.AddSimTime(duration)
	defer sp.End()
	epochs := f.reg.Counter("fleet.epochs")
	rackSteps := f.reg.Counter("fleet.rack_steps")
	shedCounter := f.reg.Counter("fleet.shed_epochs")
	faultCounter := f.reg.Counter("fleet.fault_events")
	throttleCounter := f.reg.Counter("fleet.throttle_epochs")

	out := &Run{
		Policy:           f.policy.Name(),
		Workers:          f.workers,
		RackPeakCoolingW: make([]float64, len(f.racks)),
		ThrottleOnsetS:   math.NaN(),
	}
	var err error
	if out.PowerW, err = timeseries.New(tr.Total.Start, dt, n); err != nil {
		return nil, err
	}
	out.CoolingLoadW = out.PowerW.Clone()
	out.WaxLiquid = out.PowerW.Clone()
	out.InletRiseC = out.PowerW.Clone()
	out.ThrottledRacks = out.PowerW.Clone()
	if f.scaler != nil {
		out.Scaler = f.scaler.Name()
		out.CeilMean = out.PowerW.Clone()
	}

	nr := len(f.racks)
	st := &runState{
		buf: &epochBuf{
			assign:   make([]float64, nr),
			powerW:   make([]float64, nr),
			coolingW: make([]float64, nr),
			liquid:   make([]float64, nr),
			absorbed: make([]float64, nr),
			released: make([]float64, nr),
		},
		latent:      make([]float64, nr),
		wEnthalpy:   make([]float64, nr),
		wRefC:       make([]float64, nr),
		wMass:       make([]float64, nr),
		wShell:      make([]float64, nr),
		capLost:     make([]float64, nr),
		flowLoss:    make([]float64, nr),
		haScale:     make([]float64, nr),
		retention:   make([]float64, nr),
		sensorStuck: make([]bool, nr),
		sensorDrop:  make([]bool, nr),
		throttled:   make([]bool, nr),
		maxU:        make([]float64, nr),
	}
	views := make([]RackView, nr)
	for i, rk := range f.racks {
		views[i] = RackView{Class: rk.class, Servers: rk.servers}
		st.haScale[i] = 1
		st.retention[i] = 1
		st.maxU[i] = 1
		if rk.rom == nil {
			continue
		}
		// Every rack of a class starts from the class's flat scalars,
		// extracted once at compile time from the ROM's NewWaxState.
		cl := &f.comp.classes[rk.class]
		st.wEnthalpy[i] = cl.initEnthalpy
		st.wRefC[i] = cl.initRefC
		st.wMass[i] = cl.initWaxMass
		st.wShell[i] = cl.initShellCap
		st.latent[i] = cl.latentJ
		_, lf := pcm.FlatSolve(cl.enc, st.wRefC[i], st.wMass[i], st.wShell[i], st.wEnthalpy[i])
		views[i].HasWax = true
		views[i].WaxRemaining = waxRemaining(lf, st.latent[i])
		if f.reg != nil {
			if st.phases == nil {
				st.phases = pcm.NewPhaseRecorder(f.reg)
				st.phase = make([]pcm.MeltState, nr)
			}
			st.phase[i] = f.waxPhase(st, i)
		}
	}
	if f.scaler != nil {
		st.ceil = make([]float64, nr)
		f.scaler.Reset(ScaleInfo{
			Racks:          nr,
			Servers:        f.servers,
			StepS:          dt,
			ThrottleInletC: f.degrade.ThrottleInletC,
			MaxInletC:      f.maxInletC,
			ThrottleFactor: f.degrade.ThrottleFactor,
			RecoveryTauS:   f.degrade.RecoveryTauS,
		})
	}
	// The controller may pull the trigger down to this floor and no
	// further; Validate guarantees the hardware trigger clears every
	// cold-aisle setpoint, and the clamp preserves a sliver of that.
	maxTrigBackoff := f.degrade.ThrottleInletC - f.maxInletC - maxTrigBackoffMarginC
	if maxTrigBackoff < 0 {
		maxTrigBackoff = 0
	}
	inj := f.faults.Injector()
	rb := f.bindRecorder(tr)

	// Shards: contiguous rack ranges of near-equal stepping cost (wax
	// racks weigh more than bare ones — see shardBounds), one persistent
	// worker each. The two-channel handshake (jobs in, WaitGroup out) is
	// the epoch barrier.
	type shard struct{ lo, hi int }
	shards := make([]shard, f.workers)
	jobs := make([]chan int, f.workers)
	shardErrs := make([]error, f.workers)
	bounds := f.shardBounds(f.workers)
	for s := range shards {
		shards[s] = shard{lo: bounds[s], hi: bounds[s+1]}
		jobs[s] = make(chan int, 1)
	}
	var wg sync.WaitGroup       // per-epoch barrier
	var workerWG sync.WaitGroup // worker lifetimes
	workerWG.Add(len(shards))
	for s := range shards {
		go func(si int, sh shard, job <-chan int) {
			defer workerWG.Done()
			wsp := f.reg.StartSpan("fleet.shard")
			defer wsp.End()
			steps := int64(sh.hi - sh.lo)
			step := f.stepShard
			if f.shardStep != nil {
				step = f.shardStep
			}
			for ei := range job {
				func() {
					// A panic in a rack step must not strand the epoch
					// barrier: recover, record the shard, keep draining.
					defer func() {
						if r := recover(); r != nil {
							shardErrs[si] = fmt.Errorf("fleet: shard %d (racks %d-%d) panicked at epoch %d: %v",
								si, sh.lo, sh.hi-1, ei, r)
						}
						wg.Done()
					}()
					if shardErrs[si] != nil {
						return
					}
					step(sh.lo, sh.hi, tr.Total.TimeAt(ei), dt, st)
					rackSteps.Add(steps)
					wsp.AddSimTime(dt)
				}()
			}
		}(s, shards[s], jobs[s])
	}
	defer func() {
		for _, job := range jobs {
			close(job)
		}
		workerWG.Wait()
	}()

	fleetCap := float64(f.servers)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := tr.Total.TimeAt(i)

		// Sequential fault application keeps faulted runs bit-identical
		// across worker counts.
		for _, ev := range inj.Advance(t) {
			if err := f.applyEvent(ev, st); err != nil {
				return nil, err
			}
			out.FaultEvents++
			faultCounter.Inc()
		}
		chillerOut := inj.ChillerOut()
		demand := tr.Total.Values[i] * inj.SurgeMultiplier()

		// Refresh the balancer's snapshot: throttle state from the room
		// excursion, usable ceilings, and sensor-faulted telemetry. The
		// trigger carries the autoscaler's offset from the PREVIOUS
		// epoch (zero open-loop): one epoch of actuation lag, like a
		// real BMC setpoint write.
		trigger := f.degrade.ThrottleInletC + st.trigOffC
		throttledRacks := 0
		for r := range f.racks {
			rk := &f.racks[r]
			live := 1 - st.capLost[r]
			throttled := rk.cfg.InletC+st.roomRise >= trigger
			maxU := live
			if throttled {
				maxU *= f.degrade.ThrottleFactor
				throttledRacks++
				out.ThrottledServerSeconds += live * float64(rk.servers) * dt
			}
			st.throttled[r] = throttled
			st.maxU[r] = maxU
			v := &views[r]
			v.Throttled = throttled
			v.CapacityLost = st.capLost[r]
			v.FlowLost = st.flowLoss[r]
			v.Degraded = maxU < 1
			v.MaxUtil = maxU
			switch {
			case st.sensorDrop[r]:
				v.SensorDead = true
				v.WaxRemaining = 0
				v.InletRiseC = 0
			case st.sensorStuck[r]:
				// Readings freeze at their pre-fault values.
			default:
				v.SensorDead = false
				v.InletRiseC = st.roomRise
			}
		}
		if throttledRacks > 0 {
			throttleCounter.Inc()
		}
		out.ThrottledRacks.Values[i] = float64(throttledRacks)

		// Close the loop: the controller sees the same snapshot the
		// balancer is about to, writes per-rack ceilings for this epoch,
		// and moves the trigger for the next. Still sequential — the
		// workers are parked — so closed-loop runs stay bit-identical
		// across worker counts.
		if f.scaler != nil {
			for r := range st.ceil {
				st.ceil[r] = 1
			}
			off := f.scaler.Control(t, dt, demand, views, st.ceil)
			if !(off < 0) { // also catches NaN
				off = 0
			} else if off < -maxTrigBackoff {
				off = -maxTrigBackoff
			}
			st.trigOffC = off
			scaled := false
			ceilSum := 0.0
			for r := range f.racks {
				c := st.ceil[r]
				if math.IsNaN(c) || c >= 1 {
					ceilSum++
					continue
				}
				if c < 0 {
					c = 0
				}
				ceilSum += c
				st.maxU[r] *= c
				v := &views[r]
				v.MaxUtil = st.maxU[r]
				v.Degraded = v.MaxUtil < 1
				scaled = true
			}
			if scaled {
				out.AutoscaleEpochs++
			}
			out.CeilMean.Values[i] = ceilSum / float64(nr)
		}

		f.policy.Assign(demand, views, st.buf.assign)
		placed := 0.0
		for r := range st.buf.assign {
			u := clamp01(st.buf.assign[r])
			if u > st.maxU[r] {
				u = st.maxU[r]
			}
			st.buf.assign[r] = u
			placed += u * float64(f.racks[r].servers)
		}
		if shed := clamp01(demand)*fleetCap - placed; shed > 1e-9 {
			out.ShedServerSeconds += shed * dt
			shedCounter.Inc()
		}

		wg.Add(len(shards))
		for s := range shards {
			jobs[s] <- i
		}
		wg.Wait()
		epochs.Inc()
		for s := range shardErrs {
			if shardErrs[s] != nil {
				return nil, shardErrs[s]
			}
		}

		// Merge in rack-index order: fixed summation order keeps the
		// result independent of how racks were sharded.
		var power, load, liq, liqServers float64
		for r := 0; r < nr; r++ {
			power += st.buf.powerW[r]
			load += st.buf.coolingW[r]
			if st.buf.coolingW[r] > out.RackPeakCoolingW[r] {
				out.RackPeakCoolingW[r] = st.buf.coolingW[r]
			}
			if f.racks[r].rom != nil {
				// Physics invariant, checked on every run: the negated
				// range test also rejects NaN.
				if lf := st.buf.liquid[r]; !(lf >= 0 && lf <= 1) {
					return nil, fmt.Errorf("fleet: rack %d (%s) wax liquid fraction %v outside [0, 1] after the epoch at t=%gs",
						r, f.racks[r].cfg.Name, lf, t)
				}
				srv := float64(f.racks[r].servers)
				liq += st.buf.liquid[r] * srv
				liqServers += srv
				if !st.sensorStuck[r] && !st.sensorDrop[r] {
					views[r].WaxRemaining = waxRemaining(st.buf.liquid[r], st.latent[r])
				}
				if st.phases != nil {
					f.notePhase(st, r, t+dt)
				}
			}
			if !st.sensorStuck[r] && !st.sensorDrop[r] {
				views[r].Utilization = st.buf.assign[r]
			}
		}
		out.PowerW.Values[i] = power
		out.CoolingLoadW.Values[i] = load
		if liqServers > 0 {
			out.WaxLiquid.Values[i] = liq / liqServers
		}

		// Room excursion: while the chillers are out every watt the
		// cooling system would have removed heats the room's thermal mass
		// instead (the wax absorption inside `load` already subtracted
		// its share); afterwards the plant pulls the room back down
		// exponentially.
		if chillerOut {
			if st.roomCapJ == 0 {
				st.roomCapJ = f.degrade.RoomCapacityJPerKPerKW * power / 1000
			}
			if st.roomCapJ > 0 {
				prev := st.roomRise
				st.roomRise += load * dt / st.roomCapJ
				if margin := f.degrade.ThrottleInletC - f.maxInletC; math.IsNaN(out.ThrottleOnsetS) &&
					prev < margin && st.roomRise >= margin && st.roomRise > prev {
					out.ThrottleOnsetS = t + dt*(margin-prev)/(st.roomRise-prev)
				}
			}
		} else if st.roomRise > 0 {
			st.roomRise *= math.Exp(-dt / f.degrade.RecoveryTauS)
			if st.roomRise < 1e-6 {
				st.roomRise = 0
			}
		}
		out.InletRiseC.Values[i] = st.roomRise

		// Flight-recorder capture closes the epoch, still in the
		// sequential section: the workers are parked at the barrier, so
		// recording can never perturb (or race with) the simulation.
		if rb != nil {
			rb.capture(f, st, out, i, t, demand, placed, chillerOut)
		}
	}
	for r := 0; r < nr; r++ {
		out.AbsorbedJ += st.buf.absorbed[r]
		out.ReleasedJ += st.buf.released[r]
	}
	return out, nil
}

// applyEvent folds one schedule event into the per-rack run state. Called
// from the sequential section of the epoch loop.
func (f *Fleet) applyEvent(ev faults.Event, st *runState) error {
	apply := func(r int) error {
		rk := &f.racks[r]
		switch ev.Kind {
		case faults.FanDegrade:
			// Resolve the added blockage to a flow fraction through the
			// fan-curve solver, on top of the rack's baseline blockage
			// (the wax retrofit's, when present).
			base := 0.0
			if rk.rom != nil {
				base = rk.cfg.Wax.ExtraBlockage
			}
			nominal, err := rk.cfg.FlowAt(base)
			if err != nil {
				return fmt.Errorf("fleet: rack %d fan-degrade: %w", r, err)
			}
			// A wax retrofit already blocks part of the duct; the combined
			// blockage saturates below fully sealed so the solver stays in
			// its valid range.
			total := base + ev.Value
			if total > 0.95 {
				total = 0.95
			}
			degraded, err := rk.cfg.FlowAt(total)
			if err != nil {
				return fmt.Errorf("fleet: rack %d fan-degrade: %w", r, err)
			}
			frac := degraded / nominal
			if frac <= 0.01 {
				frac = 0.01
			}
			st.flowLoss[r] = 1 - frac
			// Convection follows the flow sublinearly (h ~ v^0.8).
			st.haScale[r] = math.Pow(frac, 0.8)
		case faults.FanRecover:
			st.flowLoss[r] = 0
			st.haScale[r] = 1
		case faults.CapacityLoss:
			st.capLost[r] = ev.Value
		case faults.CapacityRecover:
			st.capLost[r] = 0
		case faults.SensorStuck:
			st.sensorStuck[r] = true
		case faults.SensorDrop:
			st.sensorDrop[r] = true
		case faults.SensorRecover:
			st.sensorStuck[r] = false
			st.sensorDrop[r] = false
		case faults.WaxDegrade:
			if rk.rom == nil {
				return nil // nothing to degrade
			}
			// Degradation is monotone: retention only ever falls, and it
			// is measured against the original enclosure.
			if ev.Value >= st.retention[r] {
				return nil
			}
			st.retention[r] = ev.Value
			orig := rk.rom.Enclosure
			enc, err := pcm.NewEnclosure(orig.Material, orig.Box, orig.Count, orig.FillFraction*ev.Value)
			if err != nil {
				return fmt.Errorf("fleet: rack %d wax-degrade: %w", r, err)
			}
			enc.MeshConductivityBoost = orig.MeshConductivityBoost
			// Rebuild the wax at its current temperature on the degraded
			// enclosure and keep its scalars. The kernel keeps using the
			// class enclosure — the exchange arithmetic reads only
			// fill-independent fields from it (material curve, crust
			// geometry), so the trajectory stays bit-identical to a
			// pcm.State stepped on the degraded enclosure.
			cl := &f.comp.classes[f.comp.class[r]]
			tNow, _ := pcm.FlatSolve(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r], st.wEnthalpy[r])
			wax, err := pcm.NewState(enc, tNow)
			if err != nil {
				return fmt.Errorf("fleet: rack %d wax-degrade: %w", r, err)
			}
			st.wEnthalpy[r], st.wRefC[r], st.wMass[r], st.wShell[r] = wax.Flat()
			st.latent[r] = enc.LatentCapacity()
			if st.phase != nil {
				// A rebuilt enclosure re-seeds the tracker without
				// counting a transition.
				st.phase[r] = f.waxPhase(st, r)
			}
		}
		return nil
	}
	switch {
	case ev.Kind == faults.ChillerRecover:
		// Re-arm the trip-epoch capacity freeze for the next outage.
		st.roomCapJ = 0
		return nil
	case ev.Kind.FleetWide():
		// Chiller and surge state live in the injector.
		return nil
	case ev.Rack >= 0:
		return apply(ev.Rack)
	case ev.Class >= 0:
		for r := range f.racks {
			if f.racks[r].class == ev.Class {
				if err := apply(r); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		for r := range f.racks {
			if err := apply(r); err != nil {
				return err
			}
		}
		return nil
	}
}
