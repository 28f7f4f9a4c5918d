package fleet

import (
	"fmt"
	"strings"
)

// RackView is the balancer's read-only snapshot of one rack at the start
// of an epoch: everything a placement decision may depend on, frozen at
// the previous epoch's barrier so every policy sees a consistent fleet.
type RackView struct {
	// Class indexes the fleet's Config.Classes entry the rack belongs to.
	Class int
	// Servers is the rack population.
	Servers int
	// HasWax reports whether the rack carries the PCM retrofit.
	HasWax bool
	// WaxRemaining is the unspent latent-capacity fraction (1 = fully
	// solid wax, 0 = exhausted or no wax at all).
	WaxRemaining float64
	// Utilization is the rack's assignment in the previous epoch.
	Utilization float64

	// The remaining fields describe fault and degradation state; all are
	// zero on a healthy rack, so policies ignorant of faults behave
	// exactly as before.

	// CapacityLost is the fraction of the rack's servers offline.
	CapacityLost float64
	// FlowLost is the fraction of nominal airflow lost to fan
	// degradation.
	FlowLost float64
	// InletRiseC is the rack inlet excursion over the cold-aisle setpoint
	// (nonzero during and after a chiller trip).
	InletRiseC float64
	// Throttled reports the rack is thermally throttled this epoch.
	Throttled bool
	// SensorDead reports the rack's telemetry is lost: WaxRemaining,
	// Utilization and InletRiseC read zero and must not be trusted.
	// (Stuck sensors are not flagged — the balancer cannot tell.)
	SensorDead bool
	// Degraded reports the rack cannot take full load this epoch; when
	// set, MaxUtil is the usable ceiling.
	Degraded bool
	// MaxUtil is the usable utilization ceiling in nominal-rack units
	// (only meaningful when Degraded; 0 on a healthy rack's zero value,
	// hence the flag). Assignments above it are clamped and the excess
	// counted as shed, so capacity-aware policies should respect it.
	MaxUtil float64
}

// UtilCeiling returns the rack's usable utilization ceiling: MaxUtil when
// the rack is degraded, 1 otherwise.
func (r RackView) UtilCeiling() float64 {
	if r.Degraded {
		return r.MaxUtil
	}
	return 1
}

// EffectiveServers returns the rack's usable capacity in server-units
// after capacity loss and throttling.
func (r RackView) EffectiveServers() float64 {
	return r.UtilCeiling() * float64(r.Servers)
}

// Policy decides how fleet demand is split across racks. Assign receives
// the fleet-wide demand (fraction of total fleet capacity in [0, 1]) and
// must fill out[i] with rack i's utilization in [0, 1]. Policies run
// sequentially between epochs and must be deterministic: the same inputs
// always produce the same assignment. Total placed work should equal
// demand times fleet capacity whenever the fleet has room; the simulator
// accounts any shortfall as shed work.
type Policy interface {
	// Name is the stable identifier used by CLI flags and reports.
	Name() string
	Assign(demand float64, racks []RackView, out []float64)
}

// capacity returns the fleet capacity in server-units.
func capacity(racks []RackView) float64 {
	total := 0.0
	for i := range racks {
		total += float64(racks[i].Servers)
	}
	return total
}

// spill distributes work (server-units) that overflowed saturated racks
// across the remaining headroom, proportionally, iterating until the work
// is placed or every rack is full. out already holds a tentative
// assignment; spill only ever raises it.
func spill(work float64, racks []RackView, out []float64) {
	for iter := 0; iter < len(racks) && work > 1e-12; iter++ {
		headroom := 0.0
		for i := range racks {
			if out[i] < 1 {
				headroom += (1 - out[i]) * float64(racks[i].Servers)
			}
		}
		if headroom <= 0 {
			return
		}
		frac := work / headroom
		if frac > 1 {
			frac = 1
		}
		placed := 0.0
		for i := range racks {
			if out[i] >= 1 {
				continue
			}
			add := (1 - out[i]) * frac
			out[i] += add
			placed += add * float64(racks[i].Servers)
		}
		work -= placed
	}
}

// RoundRobin is the paper's load balancer: work dealt evenly across the
// fleet, so every rack runs at the fleet demand. Under a homogeneous
// fleet this is exactly the fluid engine's extrapolation assumption.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "roundrobin" }

// Assign implements Policy.
func (RoundRobin) Assign(demand float64, racks []RackView, out []float64) {
	u := clamp01(demand)
	for i := range racks {
		out[i] = u
	}
}

// LeastLoaded is the classic least-connections dispatcher: it balances
// absolute work (job count) per rack, not utilization, which is what a
// balancer that cannot see backend capacity does. On a homogeneous fleet
// it reduces to RoundRobin; on a mixed fleet the small racks run hotter
// because an equal share of jobs is a larger fraction of their capacity.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "leastloaded" }

// Assign implements Policy.
func (LeastLoaded) Assign(demand float64, racks []RackView, out []float64) {
	if len(racks) == 0 {
		return
	}
	work := clamp01(demand) * capacity(racks)
	perRack := work / float64(len(racks))
	overflow := 0.0
	for i := range racks {
		servers := float64(racks[i].Servers)
		u := perRack / servers
		if u > 1 {
			overflow += (u - 1) * servers
			u = 1
		}
		out[i] = u
	}
	spill(overflow, racks, out)
}

// ThermalAware steers load away from racks whose wax is near exhaustion,
// toward racks that still hold latent buffer — the Rostami-style
// thermally-aware distribution. The assignment starts capacity-
// proportional (RoundRobin) and is skewed by each rack's thermal
// headroom score relative to the fleet mean, so a fleet whose racks are
// in identical states (e.g. homogeneous and freshly charged) reduces
// exactly to RoundRobin. Work is conserved: the skew only redistributes.
type ThermalAware struct {
	// Skew scales how aggressively load follows headroom; the deviation
	// factor per rack is 1 + Skew*(score - fleet mean score), clamped to
	// stay positive. Zero selects the default 0.75.
	Skew float64
}

// Name implements Policy.
func (ThermalAware) Name() string { return "thermal" }

// Assign implements Policy.
func (p ThermalAware) Assign(demand float64, racks []RackView, out []float64) {
	if len(racks) == 0 {
		return
	}
	skew := p.Skew
	if skew == 0 {
		skew = 0.75
	}
	total := capacity(racks)
	work := clamp01(demand) * total

	// Headroom score: the unspent latent fraction. A rack without wax has
	// no buffer at all and scores zero, so load drifts toward the
	// retrofitted racks as the fleet heats up.
	mean := 0.0
	for i := range racks {
		mean += racks[i].WaxRemaining * float64(racks[i].Servers)
	}
	mean /= total

	// Capacity-proportional weights skewed by relative headroom. The
	// per-rack weight is a pure function of the view, so the second pass
	// recomputes it instead of materializing a weights slice: Assign runs
	// every epoch and must not allocate.
	weightSum := 0.0
	for i := range racks {
		r := &racks[i]
		weightSum += thermalWeight(r, skew, mean) * float64(r.Servers)
	}
	overflow := 0.0
	for i := range racks {
		r := &racks[i]
		wi := thermalWeight(r, skew, mean) * float64(r.Servers)
		u := work * wi / weightSum / float64(r.Servers)
		if u > 1 {
			overflow += (u - 1) * float64(r.Servers)
			u = 1
		}
		out[i] = u
	}
	spill(overflow, racks, out)
}

// thermalWeight is ThermalAware's skew factor for one rack: headroom
// relative to the fleet mean, floored so no rack's share collapses.
func thermalWeight(r *RackView, skew, mean float64) float64 {
	w := 1 + skew*(r.WaxRemaining-mean)
	if w < 0.05 {
		w = 0.05
	}
	return w
}

// spillTo is spill generalized to per-rack ceilings: overflowed work is
// distributed across the headroom below each rack's UtilCeiling,
// proportionally, iterating until the work is placed or every rack is at
// its cap.
func spillTo(work float64, racks []RackView, out []float64) {
	for iter := 0; iter < len(racks) && work > 1e-12; iter++ {
		headroom := 0.0
		for i := range racks {
			r := &racks[i]
			if cap := r.UtilCeiling(); out[i] < cap {
				headroom += (cap - out[i]) * float64(r.Servers)
			}
		}
		if headroom <= 0 {
			return
		}
		frac := work / headroom
		if frac > 1 {
			frac = 1
		}
		placed := 0.0
		for i := range racks {
			r := &racks[i]
			cap := r.UtilCeiling()
			if out[i] >= cap {
				continue
			}
			add := (cap - out[i]) * frac
			out[i] += add
			placed += add * float64(r.Servers)
		}
		work -= placed
	}
}

// FaultAware is the graceful-degradation balancer: it places work on the
// fleet's effective capacity — respecting per-rack ceilings from capacity
// loss and throttling — and within that budget steers load away from
// thermally stressed racks (hot inlets, degraded airflow, spent wax) and
// away from racks whose telemetry is dead, so a faulted rack sheds load
// to healthy ones instead of dragging the whole fleet down. On a healthy
// fleet every view is pristine and the assignment reduces exactly to
// RoundRobin.
type FaultAware struct {
	// Skew scales how aggressively load avoids stressed racks; zero
	// selects the default 0.75.
	Skew float64
}

// Name implements Policy.
func (FaultAware) Name() string { return "faultaware" }

// Assign implements Policy.
func (p FaultAware) Assign(demand float64, racks []RackView, out []float64) {
	if len(racks) == 0 {
		return
	}
	skew := p.Skew
	if skew == 0 {
		skew = 0.75
	}
	work := clamp01(demand) * capacity(racks)

	// The health score (faultScore) and ceiling (UtilCeiling) are pure
	// functions of the view, so the later passes recompute them instead
	// of materializing caps/scores/weights slices: Assign runs every
	// epoch and must not allocate.
	var mean, total float64
	for i := range racks {
		r := &racks[i]
		mean += faultScore(r) * float64(r.Servers)
		total += float64(r.Servers)
	}
	mean /= total

	weightSum := 0.0
	for i := range racks {
		r := &racks[i]
		w := 1 + skew*(faultScore(r)-mean)
		if w < 0.05 {
			w = 0.05
		}
		weightSum += w * float64(r.Servers)
	}
	overflow := 0.0
	for i := range racks {
		r := &racks[i]
		w := 1 + skew*(faultScore(r)-mean)
		if w < 0.05 {
			w = 0.05
		}
		wi := w * float64(r.Servers)
		u := work * wi / weightSum / float64(r.Servers)
		cap := r.UtilCeiling()
		if u > cap {
			overflow += (u - cap) * float64(r.Servers)
			u = cap
		}
		out[i] = u
	}
	spillTo(overflow, racks, out)
}

// faultScore is FaultAware's health score for one rack, in [0, 1]:
// thermal headroom eroded by inlet excursion and airflow loss.
// Dead-sensor racks score a conservative floor — they still take load
// (their capacity is presumed intact) but no more than necessary.
func faultScore(r *RackView) float64 {
	s := 1.0
	if r.HasWax {
		s = r.WaxRemaining
	}
	if r.SensorDead {
		s = 0.1
	} else {
		s -= r.InletRiseC / 10
		s -= r.FlowLost
		if s < 0 {
			s = 0
		}
	}
	return s
}

// Policies lists the built-in policy names in presentation order.
func Policies() []string {
	return []string{"roundrobin", "leastloaded", "thermal", "faultaware"}
}

// ParsePolicy resolves a policy name (as accepted by the ttsim -fleet
// flags) to its implementation.
func ParsePolicy(name string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "roundrobin", "rr", "uniform":
		return RoundRobin{}, nil
	case "leastloaded", "leastutil", "least":
		return LeastLoaded{}, nil
	case "thermal", "thermalaware", "thermal-aware":
		return ThermalAware{}, nil
	case "faultaware", "fault-aware", "faults":
		return FaultAware{}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (want one of %s)",
			name, strings.Join(Policies(), ", "))
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
