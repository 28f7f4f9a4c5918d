package fleet

import (
	"fmt"

	"repro/internal/pcm"
	"repro/internal/server"
)

// This file is the fleet's compile pass and its epoch kernel: the per-rack
// builder representation (rackSpec structs pointing at shared Configs and
// ROMs) is lowered at New into struct-of-arrays form, and the epoch's
// parallel section runs as a fused per-shard kernel (stepShard) marching
// contiguous rack ranges over flat float64 slices. Every run executes it,
// observed or not.
//
// What is deduplicated per class, and what stays per rack:
//
//   - Per class (compiledClass, one per ClassSpec): the component power
//     table flattened to idle/dynamic pairs (same summation order as
//     Config.PowerAt, so the kernel is bit-identical to it), the shared
//     *server.ROM for the wake-air fit and wax conductance, the shared
//     *pcm.Enclosure (fill-independent geometry and material constants —
//     see pcm.FlatExchangeWithAir), the cold-aisle setpoint, and the
//     initial flat wax scalars every rack of the class starts from.
//   - Per rack (runState): the four pcm flat-state scalars (enthalpy,
//     reference temperature, wax mass, shell capacity) as contiguous
//     slices, alongside the fault multipliers (capLost/flowLoss/haScale/
//     retention) and ceilings.
//
// The kernel runs the pcm.State arithmetic over those scalars — the
// exchange is literally the same function (pcm/flat.go), the power loop
// preserves Config.PowerAt's component order, and the wake-air fit is the
// class ROM itself — so it is bit-identical to stepping one pcm.State per
// rack. TestCompiledMatchesSlow pins this against that per-rack oracle
// (compile_test.go) over a faulted, autoscaled run at several worker
// counts.
//
// Wax telemetry never enters the kernel: with a registry attached, the
// epoch merge classifies each wax rack's post-step enthalpy with
// pcm.FlatPhase and records melt/freeze transitions in rack order (see
// notePhase), so watching a run does not change how it executes.

// compiledClass holds the constants every rack of one class shares.
type compiledClass struct {
	cfg     *server.Config
	rom     *server.ROM // nil when the class carries no wax
	enc     *pcm.Enclosure
	inletC  float64
	servers float64 // rack population as float, the kernel's scale factor
	hA      float64 // wax convective conductance, W/K

	// compIdle/compDyn flatten cfg.Components in order: PowerAt at
	// nominal frequency is sum(idle[k] + u*dyn[k]) in component order.
	compIdle, compDyn []float64

	// Initial flat wax scalars (pcm.State.Flat of a fresh NewWaxState)
	// and the latent capacity; zero for a class without wax.
	initEnthalpy, initRefC, initWaxMass, initShellCap float64
	latentJ                                           float64
}

// compiled is the struct-of-arrays lowering of one Fleet, built once at
// New and immutable afterwards; per-run mutable wax state lives in
// runState's flat slices.
type compiled struct {
	classes []compiledClass
	class   []int32 // rack -> class index
}

// compile lowers the fleet into its struct-of-arrays form. Called at the
// end of New, after the racks are laid out and every ROM is derived.
func (f *Fleet) compile() error {
	c := &compiled{
		classes: make([]compiledClass, len(f.classes)),
		class:   make([]int32, len(f.racks)),
	}
	for r, rk := range f.racks {
		c.class[r] = int32(rk.class)
		cl := &c.classes[rk.class]
		if cl.cfg != nil {
			continue // class already compiled
		}
		cl.cfg = rk.cfg
		cl.rom = rk.rom
		cl.inletC = rk.cfg.InletC
		cl.servers = float64(rk.servers)
		cl.compIdle = make([]float64, len(rk.cfg.Components))
		cl.compDyn = make([]float64, len(rk.cfg.Components))
		for k, comp := range rk.cfg.Components {
			cl.compIdle[k] = comp.IdleW
			cl.compDyn[k] = comp.PeakW - comp.IdleW
		}
		if rk.rom == nil {
			continue
		}
		cl.enc = rk.rom.Enclosure
		cl.hA = rk.rom.HA
		cl.latentJ = rk.rom.LatentCapacity()
		// One reference state per class seeds every rack's flat scalars.
		wax, err := rk.rom.NewWaxState()
		if err != nil {
			return err
		}
		cl.initEnthalpy, cl.initRefC, cl.initWaxMass, cl.initShellCap = wax.Flat()
	}
	f.comp = c
	return nil
}

// waxRemaining is a wax rack's unspent latent-capacity fraction given its
// liquid fraction. A rack without wax — or with fully degraded wax — has
// latentJ zero; guard it so the fraction is 0, not NaN.
func waxRemaining(liquidFrac, latentJ float64) float64 {
	if latentJ <= 0 {
		return 0
	}
	return clamp01((1 - liquidFrac) * latentJ / latentJ)
}

// waxPhase classifies rack r's current wax enthalpy.
func (f *Fleet) waxPhase(st *runState, r int) pcm.MeltState {
	cl := &f.comp.classes[f.comp.class[r]]
	return pcm.FlatPhase(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r], st.wEnthalpy[r])
}

// notePhase derives rack r's wax telemetry after an epoch ending at tEnd:
// it classifies the post-step enthalpy and records any melt/freeze
// transition from the phase tracked since the previous epoch, under the
// label "<class>/rack<i>". Called from the sequential merge in rack order,
// so the event log is the same at every worker count.
func (f *Fleet) notePhase(st *runState, r int, tEnd float64) {
	p := f.waxPhase(st, r)
	if p == st.phase[r] {
		return
	}
	st.phases.Record(tEnd, fmt.Sprintf("%s/rack%d", f.racks[r].cfg.Name, r), st.phase[r], p, st.wEnthalpy[r])
	st.phase[r] = p
}

// stepShard is the fused epoch kernel: it advances the contiguous rack
// range [lo, hi) by one epoch over the flat arrays: the same per-server
// physics as the fluid engine (power at the assigned utilization; wax
// exchanging heat with the ROM's wake air), scaled by the live rack
// population, with the fault state folded in — a room excursion and
// reduced airflow raise the wake temperature the wax sees, and lost
// capacity idles its share of the servers. Called only by the worker
// owning the shard; every slice element it touches is indexed by r, so
// shards never share state.
func (f *Fleet) stepShard(lo, hi int, t, dt float64, st *runState) {
	c := f.comp
	buf := st.buf
	for r := lo; r < hi; r++ {
		cl := &c.classes[c.class[r]]
		live := 1 - st.capLost[r]
		if live <= 0 {
			// Rack fully offline: no power, no airflow, wax coasts.
			buf.powerW[r] = 0
			buf.coolingW[r] = 0
			if cl.rom != nil {
				_, lf := pcm.FlatSolve(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r], st.wEnthalpy[r])
				buf.liquid[r] = lf
			}
			continue
		}
		// The assignment is in nominal-rack units; the live servers run
		// proportionally hotter.
		u := buf.assign[r] / live
		if u > 1 {
			u = 1
		}
		scale := cl.servers * live
		power := 0.0
		for k, idle := range cl.compIdle {
			power += idle + u*cl.compDyn[k]
		}
		coolingPerServer := power
		if cl.rom != nil {
			wake := cl.rom.WakeAirC(u, 1)
			if st.roomRise != 0 || st.flowLoss[r] != 0 {
				// Reduced flow carries the same heat on less air, so the wake
				// rise over inlet scales inversely with the flow fraction;
				// the room excursion shifts the whole profile up.
				rise := wake - cl.inletC
				wake = cl.inletC + st.roomRise + rise/(1-st.flowLoss[r])
			}
			q := pcm.FlatExchangeWithAir(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r],
				&st.wEnthalpy[r], wake, cl.hA*st.haScale[r], dt)
			coolingPerServer = power - q/dt
			if q > 0 {
				buf.absorbed[r] += q * scale
			} else {
				buf.released[r] -= q * scale
			}
			_, lf := pcm.FlatSolve(cl.enc, st.wRefC[r], st.wMass[r], st.wShell[r], st.wEnthalpy[r])
			buf.liquid[r] = lf
		}
		buf.powerW[r] = power * scale
		buf.coolingW[r] = coolingPerServer * scale
	}
}

// waxShardWeight approximates a wax rack's step cost relative to a bare
// rack's, so weighted sharding keeps a mixed fleet's shards balanced where
// equal rack counts would park the bare-rack workers at the barrier. The
// wax exchange's sub-steps dominate: stepping 4,000 1U racks through the
// two-day trace on a 2-vCPU Xeon costs ~166 ns per wax rack-epoch against
// ~9.2 ns bare, a ratio of 18.
const waxShardWeight = 18

// shardBounds partitions the racks into `workers` contiguous ranges of
// near-equal stepping cost. Sharding never affects results — each rack is
// owned by exactly one worker and the merge order is fixed — so the cuts
// only matter for parallel efficiency.
func (f *Fleet) shardBounds(workers int) []int {
	total := 0
	for i := range f.racks {
		w := 1
		if f.racks[i].rom != nil {
			w = waxShardWeight
		}
		total += w
	}
	bounds := make([]int, workers+1)
	cum, s := 0, 1
	for i := range f.racks {
		if f.racks[i].rom != nil {
			cum += waxShardWeight
		} else {
			cum++
		}
		for s < workers && cum*workers >= s*total {
			bounds[s] = i + 1
			s++
		}
	}
	for ; s <= workers; s++ {
		bounds[s] = len(f.racks)
	}
	return bounds
}
