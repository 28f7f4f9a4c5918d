package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/workload"
)

// The fleet-warehouse workload: one caller runs Fleet.Run over and over on
// a 10,000-rack mixed floor. Per-rack stepping dominates, and the wax/bare
// mix gives the shards the phase-dependent cost skew the fleet's
// parallel pass has to absorb. The operation is one epoch, read off an
// epoch clock in the balancer (a delegating wrapper, see wrap.go), so a
// run yields hundreds of samples.

// warehouseMix is the floor: three wax classes plus a bare slice.
var warehouseMix = []struct {
	cfg   func() *server.Config
	racks int
	wax   bool
}{
	{server.OneU, 3000, true},
	{server.TwoU, 2500, true},
	{server.OpenCompute, 2000, true},
	{server.OneU, 2500, false},
}

// smokeDivisor shrinks every rack count in smoke mode.
const smokeDivisor = 100

// fleetLimit is the fleet-warehouse latency limit behind slo_frac: one
// epoch of the 10,000-rack floor, what a caller stepping the simulator
// waits for.
const fleetLimit = 100 * time.Millisecond

// warehouse is a built floor ready to run.
type warehouse struct {
	classes []fleet.ClassSpec
	trace   *workload.Trace
	fleet   *fleet.Fleet
}

// newWarehouse builds the trace, derives every wax class's ROM and
// assembles the fleet with the thermal balancer. pol replaces the
// balancer when non-nil (the traced run passes a timing wrapper).
func newWarehouse(smoke bool, workers int, pol fleet.Policy) (*warehouse, error) {
	w := &warehouse{trace: workload.GoogleTwoDay()}
	for _, m := range warehouseMix {
		cfg := m.cfg()
		cs := fleet.ClassSpec{Cfg: cfg, Racks: m.racks, WithWax: m.wax}
		if smoke {
			cs.Racks = max(1, m.racks/smokeDivisor)
		}
		if m.wax {
			rom, err := server.DeriveROM(cfg, cfg.Wax.DefaultMeltC)
			if err != nil {
				return nil, fmt.Errorf("derive %s ROM: %w", cfg.Name, err)
			}
			cs.ROM = rom
		}
		w.classes = append(w.classes, cs)
	}
	f, err := w.build(workers, pol)
	if err != nil {
		return nil, err
	}
	w.fleet = f
	return w, nil
}

// build assembles a fleet over the warehouse's classes.
func (w *warehouse) build(workers int, pol fleet.Policy) (*fleet.Fleet, error) {
	if pol == nil {
		pol = fleet.ThermalAware{}
	}
	f, err := fleet.New(fleet.Config{Classes: w.classes, Policy: pol, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("fleet.New: %w", err)
	}
	return f, nil
}

// rackEpochs is the simulated work of one Run.
func (w *warehouse) rackEpochs() float64 {
	return float64(w.fleet.Racks()) * float64(w.trace.Total.Len())
}

// runDigest hashes the Float64bits of every output of a run, so two runs
// agree on the digest only when they are bit-identical.
func runDigest(r *fleet.Run) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range [][]float64{r.PowerW.Values, r.CoolingLoadW.Values, r.WaxLiquid.Values,
		r.InletRiseC.Values, r.ThrottledRacks.Values, r.RackPeakCoolingW} {
		for _, x := range s {
			put(x)
		}
	}
	for _, x := range []float64{r.AbsorbedJ, r.ReleasedJ, r.ShedServerSeconds, r.ThrottleOnsetS, r.ThrottledServerSeconds} {
		put(x)
	}
	return h.Sum64()
}

// energyTolerance bounds the energy-balance residual relative to the wax
// throughput: ∫(power − cooling)·dt must equal AbsorbedJ − ReleasedJ.
const energyTolerance = 1e-9

// checkRun returns the physics problems of a fault-free fleet run: liquid
// fractions outside [0, 1] and an energy balance that does not close.
func checkRun(r *fleet.Run) []string {
	var bad []string
	for i, f := range r.WaxLiquid.Values {
		if !(f >= 0 && f <= 1) {
			bad = append(bad, fmt.Sprintf("epoch %d: wax liquid fraction %g outside [0, 1]", i, f))
			break
		}
	}
	net := 0.0
	for i, p := range r.PowerW.Values {
		net += (p - r.CoolingLoadW.Values[i]) * r.PowerW.Step
	}
	want := r.AbsorbedJ - r.ReleasedJ
	scale := math.Max(r.AbsorbedJ+r.ReleasedJ, 1)
	if d := math.Abs(net - want); !(d <= energyTolerance*scale) {
		bad = append(bad, fmt.Sprintf("energy balance: ∫(power−cooling)dt = %.6e J, absorbed−released = %.6e J (residual %.3g of throughput, tolerance %g)",
			net, want, d/scale, energyTolerance))
	}
	if r.AbsorbedJ <= 0 {
		bad = append(bad, "the wax absorbed no heat over the two-day trace")
	}
	return bad
}

func runFleetWarehouse(o options) (*outcome, error) {
	out := &outcome{}
	workers := runtime.NumCPU()
	var w *warehouse
	var clock *timedPolicy
	for i := 0; i < 15; i++ {
		start := time.Now()
		clock = &timedPolicy{inner: fleet.ThermalAware{}, marks: []time.Time{}}
		var err error
		if w, err = newWarehouse(o.smoke, workers, clock); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	epochs := w.trace.Total.Len()

	var want uint64
	var runs []float64
	allocStart, cpuStart := totalAlloc(), cpuTime()
	loopStart := time.Now()
	for tries := 0; tries < 3 || time.Since(loopStart).Seconds() < o.seconds; tries++ {
		out.attempted += epochs
		clock.marks = clock.marks[:0]
		start := time.Now()
		r, err := w.fleet.Run(w.trace)
		end := time.Now()
		if err != nil {
			out.failed += epochs
			out.check(false, "Run %d: %v", tries+1, err)
			continue
		}
		runs = append(runs, ms(end.Sub(start)))
		bad := checkRun(r)
		if len(clock.marks) != epochs {
			bad = append(bad, fmt.Sprintf("the balancer ran %d times over %d epochs", len(clock.marks), epochs))
		}
		d := runDigest(r)
		if want == 0 {
			want = d
		} else if d != want {
			bad = append(bad, fmt.Sprintf("digest %016x differs from the first run's %016x", d, want))
		}
		for _, p := range bad {
			out.check(false, "Run %d: %s", tries+1, p)
		}
		// Epoch i runs from the balancer's call for it to the call for
		// epoch i+1; the first starts with Run, the last ends with it.
		marks := append(append([]time.Time{start}, clock.marks[min(1, len(clock.marks)):]...), end)
		for i := 1; i < len(marks); i++ {
			took := marks[i].Sub(marks[i-1])
			out.ops = append(out.ops, ms(took))
			if len(bad) == 0 && took <= fleetLimit {
				out.inLimit++
			}
		}
	}
	out.allocB, out.cpu = totalAlloc()-allocStart, cpuTime()-cpuStart

	// The timed runs must match a single-worker run without the epoch
	// clock bit for bit.
	one, err := w.build(1, nil)
	if err != nil {
		return nil, err
	}
	r, err := one.Run(w.trace)
	if err != nil {
		return nil, fmt.Errorf("Workers=1 run: %w", err)
	}
	out.check(runDigest(r) == want, "Workers=1 digest %016x differs from the timed runs' %016x", runDigest(r), want)

	fmt.Fprintf(o.out, "fleet-warehouse: %d racks, %d servers, %d epochs, workers %d, digest %016x\n",
		w.fleet.Racks(), w.fleet.Servers(), epochs, w.fleet.Workers(), want)
	fmt.Fprintf(o.out, "fleet_rack_epochs_per_s %.0f rack-epochs/s (median Run %.1f ms of %d runs)\n",
		w.rackEpochs()/(median(runs)/1e3), median(runs), len(runs))
	return out, nil
}
