package thermal

import (
	"math"

	"repro/internal/units"
)

// stepSlow is the original pointer-graph stepper, kept as the reference
// path the compiled stepper is pinned against. It walks the air stream
// twice (once in marchAir for the wax heat, once re-inlined for the
// equilibrium form) and allocates several maps per step.
func (m *Model) stepSlow(dt float64) {
	m.stepCount.Inc()
	t := m.clock
	if m.FlowFunc != nil {
		m.FlowM3s = m.FlowFunc(t)
	}
	heat := m.marchAir()

	// Conduction sums (explicit in neighbor temperatures).
	condPower := make(map[*Node]float64)
	condG := make(map[*Node]float64)
	for _, l := range m.links {
		condPower[l.a] += l.g * l.b.temperature
		condPower[l.b] += l.g * l.a.temperature
		condG[l.a] += l.g
		condG[l.b] += l.g
	}
	// Convective conductances per node from the march (recompute geff and
	// local air temps for the equilibrium form).
	mcp := units.AdvectionConductance(m.FlowM3s)
	convG := make(map[*Node]float64)
	convAir := make(map[*Node]float64)
	air := m.InletC
	for _, st := range m.stations {
		smcp := mcp * st.FlowShare
		local := air
		stationQ := 0.0
		for _, at := range st.attachments {
			g := m.effectiveConductance(at)
			geff := smcp * (1 - math.Exp(-g/smcp))
			if at.node != nil {
				convG[at.node] += geff
				convAir[at.node] += geff * local
			}
			var surf float64
			if at.node != nil {
				surf = at.node.temperature
			} else {
				surf = at.wax.Temperature()
			}
			q := geff * (surf - local)
			local += q / smcp
			stationQ += q
		}
		air += stationQ / mcp
	}

	for _, n := range m.nodes {
		p := 0.0
		if n.Power != nil {
			p = n.Power(t)
		}
		gTot := condG[n] + convG[n]
		if gTot <= 0 {
			// Pure accumulator: all power integrates.
			n.temperature += p * dt / n.CapacityJPerK
			continue
		}
		eq := (p + condPower[n] + convAir[n]) / gTot
		tau := n.CapacityJPerK / gTot
		n.temperature = eq + (n.temperature-eq)*math.Exp(-dt/tau)
	}

	// Wax exchanges the marched heat over the step.
	for _, st := range m.stations {
		for _, at := range st.attachments {
			if at.wax != nil {
				if m.reg != nil {
					at.wax.SetSimTime(m.clock)
				}
				q := heat[at.wax] // W from wax into air
				at.wax.AddHeat(-q * dt)
			}
		}
	}

	m.clock += dt
}
