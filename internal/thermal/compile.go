package thermal

import (
	"math"

	"repro/internal/pcm"
	"repro/internal/units"
)

// This file is the compile pass: the pointer graph of nodes, stations,
// attachments, and links is lowered into CSR-style flat index arrays the
// first time the model is stepped or solved, and the hot loops run over
// those arrays with preallocated scratch — zero heap allocations per step.
//
// What is precomputed, and when it invalidates:
//
//   - Topology (node/attachment/link index arrays, capacities, link
//     conductance sums): built by compile(), thrown away whenever the
//     network is mutated (AddNode, AddStation, Attach, AttachWax, Link).
//   - Flow-dependent terms (velocity-scaled conductances, the
//     effectiveness-limited geff = smcp·(1−exp(−g/smcp)), and per-node
//     convective conductance sums): refreshed by refreshGeff() only when
//     FlowM3s differs from the flow they were computed at. A constant-flow
//     run pays the math.Exp per attachment exactly once.
//   - Relaxation factors exp(−dt/τ) per node: refreshed by refreshRelax()
//     only when dt or the flow-dependent conductances change.
//
// The arithmetic mirrors the pointer-graph reference stepper kept in
// slow_test.go operation for operation, in the same order, so the compiled
// stepper is bit-compatible with it (the equivalence tests in
// compile_test.go pin this).

// compiled is the flat-array lowering of one Model's network.
type compiled struct {
	// Per-node arrays, indexed in m.nodes order.
	cap       []float64   // thermal capacitance, J/K
	power     []PowerFunc // nil for passive nodes
	condG     []float64   // static sum of link conductances, W/K
	condPower []float64   // scratch: sum of g·T_neighbor this pass
	convG     []float64   // sum of attachment geffs (refreshed with flow)
	convAir   []float64   // scratch: sum of geff·T_local this pass
	temp      []float64   // scratch: node temperatures during a pass
	relax     []float64   // cached exp(−dt/τ); −1 marks the accumulator path
	localAir  []float64   // scratch (steady state): last local air seen
	localGeff []float64   // scratch (steady state): last attachment geff

	// Per-link arrays.
	linkA, linkB []int32
	linkG        []float64

	// Per-station arrays; attachments of station i occupy the run
	// [stFirst[i], stFirst[i+1]) of the attachment arrays.
	stFirst []int32
	stShare []float64

	// Per-attachment arrays, flattened in station order.
	attNode []int32      // node index, or −1 for a wax attachment
	attWax  []*pcm.State // nil for node attachments
	attCond []float64    // hA at the reference flow
	attVel  []bool       // forced-convection velocity scaling
	attGeff []float64    // cached effectiveness-limited conductance
	attHeat []float64    // scratch: W into the air this pass
	hasWax  bool

	// geffFlow is the FlowM3s the flow-dependent arrays were computed at;
	// NaN forces the first refresh.
	geffFlow float64
	// relaxDt is the step size the relax array was computed at; NaN forces
	// the first refresh and refreshGeff resets it.
	relaxDt float64
}

// invalidate discards the compiled form; the next Step/Run/Solve rebuilds.
func (m *Model) invalidate() { m.comp = nil }

// ensureCompiled returns the compiled network, lowering it on first use.
func (m *Model) ensureCompiled() *compiled {
	if m.comp != nil {
		return m.comp
	}
	nn := len(m.nodes)
	c := &compiled{
		cap:       make([]float64, nn),
		power:     make([]PowerFunc, nn),
		condG:     make([]float64, nn),
		condPower: make([]float64, nn),
		convG:     make([]float64, nn),
		convAir:   make([]float64, nn),
		temp:      make([]float64, nn),
		relax:     make([]float64, nn),
		localAir:  make([]float64, nn),
		localGeff: make([]float64, nn),
		geffFlow:  math.NaN(),
		relaxDt:   math.NaN(),
	}
	index := make(map[*Node]int32, nn)
	for i, n := range m.nodes {
		index[n] = int32(i)
		c.cap[i] = n.CapacityJPerK
		c.power[i] = n.Power
	}
	for _, l := range m.links {
		c.linkA = append(c.linkA, index[l.a])
		c.linkB = append(c.linkB, index[l.b])
		c.linkG = append(c.linkG, l.g)
		c.condG[index[l.a]] += l.g
		c.condG[index[l.b]] += l.g
	}
	c.stFirst = make([]int32, 0, len(m.stations)+1)
	c.stShare = make([]float64, 0, len(m.stations))
	for _, st := range m.stations {
		c.stFirst = append(c.stFirst, int32(len(c.attNode)))
		c.stShare = append(c.stShare, st.FlowShare)
		for _, at := range st.attachments {
			ni := int32(-1)
			if at.node != nil {
				ni = index[at.node]
			} else {
				c.hasWax = true
			}
			c.attNode = append(c.attNode, ni)
			c.attWax = append(c.attWax, at.wax)
			c.attCond = append(c.attCond, at.conductance)
			c.attVel = append(c.attVel, at.velocityScaled)
		}
	}
	c.stFirst = append(c.stFirst, int32(len(c.attNode)))
	c.attGeff = make([]float64, len(c.attNode))
	c.attHeat = make([]float64, len(c.attNode))
	m.comp = c
	return c
}

// refreshGeff recomputes the flow-dependent conductances when FlowM3s has
// changed since the last refresh: the per-attachment effective conductance
// (velocity scaling), its effectiveness-limited geff, and the per-node
// convective sums. Constant-flow runs hit the early return every step.
func (c *compiled) refreshGeff(m *Model) {
	if m.FlowM3s == c.geffFlow {
		return
	}
	c.geffFlow = m.FlowM3s
	c.relaxDt = math.NaN() // τ depends on convG
	mcp := units.AdvectionConductance(m.FlowM3s)
	for i := range c.convG {
		c.convG[i] = 0
	}
	scaled := m.FlowM3s != m.refFlowM3s
	ratio := m.FlowM3s / m.refFlowM3s
	for si := range c.stShare {
		smcp := mcp * c.stShare[si]
		for ai := c.stFirst[si]; ai < c.stFirst[si+1]; ai++ {
			g := c.attCond[ai]
			if c.attVel[ai] && scaled {
				if ratio <= 0 {
					g *= 0.1
				} else {
					g *= math.Pow(ratio, 0.8)
				}
			}
			geff := smcp * (1 - math.Exp(-g/smcp))
			c.attGeff[ai] = geff
			if ni := c.attNode[ai]; ni >= 0 {
				c.convG[ni] += geff
			}
		}
	}
}

// refreshRelax recomputes the cached per-node relaxation factors
// exp(−dt/τ) with τ = C/(condG+convG). Valid until dt or the conductances
// change; a fixed-dt constant-flow run computes the exponentials once.
func (c *compiled) refreshRelax(dt float64) {
	if dt == c.relaxDt {
		return
	}
	c.relaxDt = dt
	for i := range c.relax {
		gTot := c.condG[i] + c.convG[i]
		if gTot <= 0 {
			c.relax[i] = -1 // pure accumulator: no relaxation path
			continue
		}
		tau := c.cap[i] / gTot
		c.relax[i] = math.Exp(-dt / tau)
	}
}

// stepCompiled is the fused allocation-free transient update: one air
// march (fixing the duplicated march of the slow path), conduction sums,
// exponential node relaxation, and wax heat deposit, all over the flat
// arrays.
func (m *Model) stepCompiled(dt float64) {
	t := m.clock
	if m.FlowFunc != nil {
		m.FlowM3s = m.FlowFunc(t)
	}
	c := m.ensureCompiled()
	c.refreshGeff(m)
	c.refreshRelax(dt)
	for i, n := range m.nodes {
		c.temp[i] = n.temperature
		c.condPower[i] = 0
		c.convAir[i] = 0
	}

	// Single fused march: per-attachment heat (for the wax deposit) and the
	// per-node convective equilibrium terms come from the same pass.
	mcp := units.AdvectionConductance(m.FlowM3s)
	air := m.InletC
	for si, st := range m.stations {
		smcp := mcp * c.stShare[si]
		local := air
		stationQ := 0.0
		for ai := c.stFirst[si]; ai < c.stFirst[si+1]; ai++ {
			geff := c.attGeff[ai]
			var surf float64
			if ni := c.attNode[ai]; ni >= 0 {
				surf = c.temp[ni]
				c.convAir[ni] += geff * local
			} else {
				surf = c.attWax[ai].Temperature()
			}
			q := geff * (surf - local)
			c.attHeat[ai] = q
			local += q / smcp
			stationQ += q
		}
		st.airC = local
		air += stationQ / mcp
	}

	for li := range c.linkG {
		a, b, g := c.linkA[li], c.linkB[li], c.linkG[li]
		c.condPower[a] += g * c.temp[b]
		c.condPower[b] += g * c.temp[a]
	}

	for i := range c.temp {
		p := 0.0
		if f := c.power[i]; f != nil {
			p = f(t)
		}
		if c.relax[i] < 0 {
			// Pure accumulator: all power integrates.
			c.temp[i] += p * dt / c.cap[i]
			continue
		}
		gTot := c.condG[i] + c.convG[i]
		eq := (p + c.condPower[i] + c.convAir[i]) / gTot
		c.temp[i] = eq + (c.temp[i]-eq)*c.relax[i]
	}
	for i, n := range m.nodes {
		n.temperature = c.temp[i]
	}

	if c.hasWax {
		observed := m.reg != nil
		for ai, w := range c.attWax {
			if w == nil {
				continue
			}
			if observed {
				w.SetSimTime(m.clock)
			}
			w.AddHeat(-c.attHeat[ai] * dt)
		}
	}
	m.clock += dt
}

// refreshAir re-marches the stream against current node and wax
// temperatures, updating station air readings without touching any state —
// the allocation-free replacement for marchAir where only the readings are
// needed.
func (m *Model) refreshAir() {
	c := m.ensureCompiled()
	c.refreshGeff(m)
	mcp := units.AdvectionConductance(m.FlowM3s)
	air := m.InletC
	for si, st := range m.stations {
		smcp := mcp * c.stShare[si]
		local := air
		stationQ := 0.0
		for ai := c.stFirst[si]; ai < c.stFirst[si+1]; ai++ {
			var surf float64
			if ni := c.attNode[ai]; ni >= 0 {
				surf = m.nodes[ni].temperature
			} else {
				surf = c.attWax[ai].Temperature()
			}
			q := c.attGeff[ai] * (surf - local)
			local += q / smcp
			stationQ += q
		}
		st.airC = local
		air += stationQ / mcp
	}
}
