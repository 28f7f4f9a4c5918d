// Package thermal implements the server-interior heat model that stands in
// for the paper's ANSYS Icepak CFD simulations: a lumped-parameter thermal
// network of capacitive component nodes coupled to a one-dimensional
// advected air stream, with optional phase-change (wax) attachments.
//
// Air is treated as quasi-static (its thermal capacitance is negligible
// next to the components'): at every instant the stream is marched from
// inlet to outlet, each attachment exchanging heat with the local air via
// an effectiveness-limited convective conductance. Component temperatures
// then evolve by an exponential (unconditionally stable) per-node update.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// PowerFunc returns a heat source's dissipation in watts at time t
// (seconds).
type PowerFunc func(t float64) float64

// ConstantPower returns a PowerFunc that always yields w.
func ConstantPower(w float64) PowerFunc { return func(float64) float64 { return w } }

// StepPower returns a PowerFunc that is `before` until switchT and `after`
// afterwards; the shape used by the validation experiment (idle, then 12 h
// loaded, then idle is built by composing two steps).
func StepPower(before, after, switchT float64) PowerFunc {
	return func(t float64) float64 {
		if t < switchT {
			return before
		}
		return after
	}
}

// Node is a capacitive solid component: CPU package + sink, DIMM bank,
// drive, PSU, or the lumped "rest of motherboard".
type Node struct {
	Name string
	// CapacityJPerK is the lumped thermal capacitance.
	CapacityJPerK float64
	// Power is the node's heat source; nil means passive.
	Power PowerFunc
	// temperature is the current state, degC.
	temperature float64
}

// Temperature returns the node's current temperature in degC.
func (n *Node) Temperature() float64 { return n.temperature }

// attachment couples a node (or wax state) to a station of the air stream.
type attachment struct {
	node *Node // exactly one of node/wax is set
	wax  *pcm.State
	// conductance is h*A in W/K at the reference velocity.
	conductance float64
	// velocityScaled marks attachments whose conductance scales with
	// (v/vref)^0.8, the forced-convection law.
	velocityScaled bool
}

// Station is one downstream position on the air path. Attachments at the
// same station exchange sequentially with the station's local stream. A
// station may be a wake: a sub-stream carrying only FlowShare of the total
// flow (a heatsink exhaust jet); its attachments then see much hotter
// local air, and the stream remixes into the bulk downstream.
type Station struct {
	Name        string
	attachments []attachment
	// FlowShare is the fraction of total flow passing through this
	// station's local stream, in (0, 1].
	FlowShare float64
	// airC is the most recent local air temperature leaving this station.
	airC float64
}

// AirTemperature returns the air temperature at the station exit from the
// most recent step or solve.
func (s *Station) AirTemperature() float64 { return s.airC }

// conductionLink conducts heat directly between two nodes (e.g. CPU die to
// a downwind baffle).
type conductionLink struct {
	a, b *Node
	g    float64 // W/K
}

// Model is a thermal network for one server.
type Model struct {
	nodes    []*Node
	stations []*Station
	links    []conductionLink

	// InletC is the cold-aisle air temperature entering the server.
	InletC float64
	// FlowM3s is the current volumetric airflow.
	FlowM3s float64
	// FlowFunc, when non-nil, overrides FlowM3s at the start of every step
	// and solve with its value at the model clock — the paper models fans
	// "as a time-based step function between the idle and loaded speeds".
	FlowFunc func(t float64) float64
	// refFlowM3s is the flow at which attachment conductances were
	// specified; velocity-scaled conductances follow (Flow/ref)^0.8.
	refFlowM3s float64

	clock float64

	// comp is the flat-array lowering of the network (see compile.go),
	// built lazily on the first Step/Run/SolveSteadyState and discarded
	// whenever the topology is mutated.
	comp *compiled

	// Telemetry instruments; all nil (allocation-free no-ops) until
	// Instrument is called with a live registry.
	reg         *obs.Registry
	stepCount   *obs.Counter
	solveCount  *obs.Counter
	solveSweeps *obs.Histogram
	events      *obs.EventLog
}

// Instrument attaches a telemetry registry: Step and SolveSteadyState
// counters, a sweep-count histogram, solver convergence events, and phase
// transition tracking on every attached wax state. Call after the network
// is assembled so the wax attachments are seen; a nil registry leaves the
// model on the disabled fast path.
func (m *Model) Instrument(reg *obs.Registry) {
	m.reg = reg
	m.stepCount = reg.Counter("thermal.steps")
	m.solveCount = reg.Counter("thermal.solves")
	m.solveSweeps = reg.Histogram("thermal.solve_sweeps", nil)
	m.events = reg.Events()
	for _, st := range m.stations {
		for _, at := range st.attachments {
			if at.wax != nil {
				at.wax.Instrument(reg, st.Name)
			}
		}
	}
}

// NewModel creates an empty model with the given inlet temperature and
// nominal (reference) airflow in m^3/s.
func NewModel(inletC, flowM3s float64) (*Model, error) {
	if flowM3s <= 0 {
		return nil, fmt.Errorf("thermal: non-positive airflow %v", flowM3s)
	}
	return &Model{InletC: inletC, FlowM3s: flowM3s, refFlowM3s: flowM3s}, nil
}

// AddNode registers a component node, initialized at the inlet temperature.
func (m *Model) AddNode(name string, capacityJPerK float64, power PowerFunc) (*Node, error) {
	if capacityJPerK <= 0 {
		return nil, fmt.Errorf("thermal: node %q has non-positive capacity", name)
	}
	n := &Node{Name: name, CapacityJPerK: capacityJPerK, Power: power, temperature: m.InletC}
	m.nodes = append(m.nodes, n)
	m.invalidate()
	return n, nil
}

// AddStation appends a full-flow station at the downstream end of the air
// path.
func (m *Model) AddStation(name string) *Station {
	s, _ := m.AddWakeStation(name, 1)
	return s
}

// AddWakeStation appends a station whose local stream carries only share of
// the total flow: the wake behind a heatsink or a partial bypass duct.
func (m *Model) AddWakeStation(name string, share float64) (*Station, error) {
	if share <= 0 || share > 1 {
		return nil, fmt.Errorf("thermal: station %q flow share %v outside (0, 1]", name, share)
	}
	s := &Station{Name: name, FlowShare: share, airC: m.InletC}
	m.stations = append(m.stations, s)
	m.invalidate()
	return s, nil
}

// Attach couples a node to a station with convective conductance hA (W/K)
// at the reference flow. velocityScaled selects forced-convection scaling
// with flow.
func (m *Model) Attach(st *Station, n *Node, hA float64, velocityScaled bool) error {
	if hA <= 0 {
		return fmt.Errorf("thermal: non-positive conductance %v for %q", hA, n.Name)
	}
	st.attachments = append(st.attachments, attachment{node: n, conductance: hA, velocityScaled: velocityScaled})
	m.invalidate()
	return nil
}

// AttachWax couples a PCM state to a station with convective conductance
// hA (W/K) at the reference flow.
func (m *Model) AttachWax(st *Station, w *pcm.State, hA float64, velocityScaled bool) error {
	if hA <= 0 {
		return errors.New("thermal: non-positive wax conductance")
	}
	st.attachments = append(st.attachments, attachment{wax: w, conductance: hA, velocityScaled: velocityScaled})
	m.invalidate()
	return nil
}

// Link conducts heat between two nodes with conductance g (W/K).
func (m *Model) Link(a, b *Node, g float64) error {
	if g <= 0 {
		return errors.New("thermal: non-positive link conductance")
	}
	m.links = append(m.links, conductionLink{a: a, b: b, g: g})
	m.invalidate()
	return nil
}

// SetTemperatures initializes every node (and the station readings) to
// tempC; wax states are reset to the same temperature.
func (m *Model) SetTemperatures(tempC float64) {
	for _, n := range m.nodes {
		n.temperature = tempC
	}
	for _, st := range m.stations {
		st.airC = tempC
		for _, at := range st.attachments {
			if at.wax != nil {
				at.wax.Reset(tempC)
			}
		}
	}
	m.clock = 0
}

// effectiveConductance applies velocity scaling.
func (m *Model) effectiveConductance(at attachment) float64 {
	if !at.velocityScaled || m.FlowM3s == m.refFlowM3s {
		return at.conductance
	}
	ratio := m.FlowM3s / m.refFlowM3s
	if ratio <= 0 {
		return at.conductance * 0.1
	}
	return at.conductance * math.Pow(ratio, 0.8)
}

// marchAir walks the stream from inlet to outlet given current node and wax
// temperatures, recording station air temperatures and returning the heat
// each attachment passes to the air in watts (same order as visited).
func (m *Model) marchAir() map[interface{}]float64 {
	heat := make(map[interface{}]float64)
	mcp := units.AdvectionConductance(m.FlowM3s)
	air := m.InletC
	for _, st := range m.stations {
		smcp := mcp * st.FlowShare
		local := air
		stationQ := 0.0
		for _, at := range st.attachments {
			g := m.effectiveConductance(at)
			// Effectiveness-limited exchange: the local stream cannot pick
			// up more heat than warming fully to the surface temperature.
			geff := smcp * (1 - math.Exp(-g/smcp))
			var surf float64
			var key interface{}
			if at.node != nil {
				surf = at.node.temperature
				key = at.node
			} else {
				surf = at.wax.Temperature()
				key = at.wax
			}
			q := geff * (surf - local)
			heat[key] += q
			local += q / smcp
			stationQ += q
		}
		st.airC = local
		// The wake remixes into the bulk flow downstream.
		air += stationQ / mcp
	}
	return heat
}

// OutletC returns the exhaust air temperature from the most recent step or
// solve; inlet temperature if the model has no stations.
func (m *Model) OutletC() float64 {
	if len(m.stations) == 0 {
		return m.InletC
	}
	return m.stations[len(m.stations)-1].airC
}

// Step advances the model by dt seconds. Node updates use per-node
// exponential relaxation toward the local equilibrium, which is stable for
// any dt; accuracy calls for dt well below the fastest node time constant
// of interest (the server package uses 5 s). The update runs on the
// compiled flat-array form of the network (see compile.go) and performs no
// heap allocations once the network is compiled.
func (m *Model) Step(dt float64) {
	m.stepCount.Inc()
	m.stepCompiled(dt)
}

// Probe identifies a value to record during a transient run.
type Probe struct {
	Name string
	// Station records the station's exit air temperature when non-nil.
	Station *Station
	// Node records the node temperature when non-nil.
	Node *Node
	// Wax records the wax liquid fraction when non-nil.
	Wax *pcm.State
}

func (p Probe) read() float64 {
	switch {
	case p.Station != nil:
		return p.Station.AirTemperature()
	case p.Node != nil:
		return p.Node.Temperature()
	case p.Wax != nil:
		return p.Wax.LiquidFraction()
	default:
		return math.NaN()
	}
}

// TransientResult holds sampled probe traces from a Run.
type TransientResult struct {
	// Traces holds one series per probe, in probe order.
	Traces []*timeseries.Series
	// Names mirrors the probe names.
	Names []string
}

// Trace returns the series for the named probe, or nil.
func (r *TransientResult) Trace(name string) *timeseries.Series {
	for i, n := range r.Names {
		if n == name {
			return r.Traces[i]
		}
	}
	return nil
}

// Run integrates the model for duration seconds with step dt, sampling the
// probes every sampleEvery seconds. The model clock continues from its
// current value.
func (m *Model) Run(duration, dt, sampleEvery float64, probes []Probe) (*TransientResult, error) {
	if dt <= 0 || duration < 0 {
		return nil, fmt.Errorf("thermal: bad run parameters dt=%v duration=%v", dt, duration)
	}
	if sampleEvery < dt {
		sampleEvery = dt
	}
	sp := m.reg.StartSpan("thermal.run")
	sp.AddSimTime(duration)
	defer sp.End()
	n := int(duration/sampleEvery) + 1
	res := &TransientResult{}
	for _, p := range probes {
		s, err := timeseries.New(m.clock, sampleEvery, n)
		if err != nil {
			return nil, err
		}
		res.Traces = append(res.Traces, s)
		res.Names = append(res.Names, p.Name)
	}
	record := func(idx int) {
		for i, p := range probes {
			if idx < res.Traces[i].Len() {
				res.Traces[i].Values[idx] = p.read()
			}
		}
	}
	// Make sure station readings are current before the first sample.
	m.refreshAir()
	record(0)
	elapsed := 0.0
	nextSample := sampleEvery
	idx := 1
	for elapsed < duration {
		h := dt
		if elapsed+h > duration {
			h = duration - elapsed
		}
		m.Step(h)
		elapsed += h
		if elapsed+1e-9 >= nextSample {
			record(idx)
			idx++
			nextSample += sampleEvery
		}
	}
	return res, nil
}

// SolveSteadyState iterates the network to the fixed point where every
// node's power balances its heat paths, holding wax inert (steady state
// means no latent flow; wax surfaces float at local air temperature).
// It returns the number of sweeps used.
func (m *Model) SolveSteadyState(tol float64, maxSweeps int) (int, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	if maxSweeps <= 0 {
		maxSweeps = 10000
	}
	sp := m.reg.StartSpan("thermal.solve")
	defer sp.End()
	t := m.clock
	if m.FlowFunc != nil {
		m.FlowM3s = m.FlowFunc(t)
	}
	c := m.ensureCompiled()
	c.refreshGeff(m)
	mcp := units.AdvectionConductance(m.FlowM3s)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := 0.0
		// March air with wax floating at local air temperature.
		air := m.InletC
		for si, st := range m.stations {
			smcp := mcp * c.stShare[si]
			local := air
			stationQ := 0.0
			for ai := c.stFirst[si]; ai < c.stFirst[si+1]; ai++ {
				ni := c.attNode[ai]
				if ni < 0 {
					continue // wax is inert at steady state
				}
				geff := c.attGeff[ai]
				c.localAir[ni] = local
				c.localGeff[ni] = geff
				q := geff * (m.nodes[ni].temperature - local)
				local += q / smcp
				stationQ += q
			}
			st.airC = local
			air += stationQ / mcp
		}
		// Gauss-Seidel node update.
		for i := range c.condPower {
			c.condPower[i] = 0
		}
		for li := range c.linkG {
			a, b, g := c.linkA[li], c.linkB[li], c.linkG[li]
			c.condPower[a] += g * m.nodes[b].temperature
			c.condPower[b] += g * m.nodes[a].temperature
		}
		for si := range c.stShare {
			for ai := c.stFirst[si]; ai < c.stFirst[si+1]; ai++ {
				ni := c.attNode[ai]
				if ni < 0 {
					continue
				}
				n := m.nodes[ni]
				geff := c.localGeff[ni]
				p := 0.0
				if n.Power != nil {
					p = n.Power(t)
				}
				next := (p + c.condPower[ni] + geff*c.localAir[ni]) / (c.condG[ni] + geff)
				if d := math.Abs(next - n.temperature); d > maxDelta {
					maxDelta = d
				}
				// Damped update: wake stations couple strongly through the
				// shared local stream, and full Gauss-Seidel steps can
				// oscillate there.
				n.temperature = 0.5*n.temperature + 0.5*next
			}
		}
		if maxDelta < tol {
			m.solveCount.Inc()
			m.solveSweeps.Observe(float64(sweep))
			m.events.Record(m.clock, "thermal.solve", "", float64(sweep), maxDelta)
			return sweep, nil
		}
	}
	m.solveCount.Inc()
	m.solveSweeps.Observe(float64(maxSweeps))
	m.events.Record(m.clock, "thermal.solve_diverged", "", float64(maxSweeps), tol)
	return maxSweeps, errors.New("thermal: steady state did not converge")
}

// Clock returns the model's internal time in seconds.
func (m *Model) Clock() float64 { return m.clock }

// Nodes returns the registered nodes in creation order.
func (m *Model) Nodes() []*Node { return m.nodes }

// Stations returns the stations in downstream order.
func (m *Model) Stations() []*Station { return m.stations }
