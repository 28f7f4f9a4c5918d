package pcm

import "math"

// This file is the flat-state form of the enclosure state machine: the
// same enthalpy physics as State, expressed as free functions over four
// scalars (enthalpy, reference temperature, wax mass, shell capacity) plus
// the shared *Enclosure. Struct-of-arrays drivers — the fleet simulator's
// compiled epoch kernel — keep those scalars in contiguous per-rack
// slices, share one Enclosure per server class, and call these primitives
// directly, so a million wax states cost four float64 slices instead of a
// million heap objects.
//
// State's own methods delegate to these functions, so the flat path and
// the pointer path are bit-identical by construction: there is exactly one
// implementation of the arithmetic, and the equivalence tests in
// flat_test.go pin the delegation.

// flatEnthalpyAt returns the total enclosure enthalpy (J) in equilibrium
// at tempC for the given flat state.
func flatEnthalpyAt(enc *Enclosure, refC, waxMass, shellCap, tempC float64) float64 {
	m := &enc.Material
	return waxMass*m.Enthalpy(tempC, refC) + shellCap*(tempC-refC)
}

// invertEnthalpy inverts total enclosure enthalpy to (temperature, liquid
// fraction): it solves waxMass*h(T) + shellCap*(T-refC) = H in closed
// form. The wax term clamps its reference to the solidus, as Enthalpy
// does; the shell term does not. A non-positive shell capacity counts as
// none.
//
// The left side is linear in T below the solidus and above the liquidus,
// so those segments invert with one division. Across the melt range
// T = sol + f*w with w the melt range, and the mushy-zone sensible heat is
// quadratic in the liquid fraction f, so there
//
//	a*f^2 + b*f + c = 0,  a = waxMass*w*(cl-cs)/2,
//	b = waxMass*(HoF + w*cs/2) + shellCap*w,  c = H_sol - H,
//
// whose root in [0, 1] is taken in the cancellation-free form
// f = -2c / (b + sqrt(b^2 - 4ac)). A sharp melt (w = 0) needs no branch:
// a = 0, so the root is exactly (H - H_sol)/(waxMass*HoF) and T is the
// solidus. The cost is one segment lookup and at most one square root,
// whatever the phase; flat_test.go checks it against a bisection oracle.
func invertEnthalpy(m *Material, refC, waxMass, shellCap, enthalpyJ float64) (tempC, liquidFrac float64) {
	if shellCap < 0 {
		shellCap = 0
	}
	sol, liq := m.SolidusC(), m.LiquidusC()
	refW := refC
	if refW > sol {
		refW = sol
	}
	// Breakpoint enthalpies, in flatEnthalpyAt's arithmetic order.
	waxSol := m.SpecificHeatSolid * (sol - refW)
	hSol := waxMass*waxSol + shellCap*(sol-refC)
	hLiq := waxMass*(waxSol+m.HeatOfFusion+mushySensible(m, 1)) + shellCap*(liq-refC)
	switch {
	case enthalpyJ <= hSol:
		// The shell's reference offset is zero unless refC > sol.
		return refW + (enthalpyJ-shellCap*(refW-refC))/(waxMass*m.SpecificHeatSolid+shellCap), 0
	case enthalpyJ >= hLiq:
		return liq + (enthalpyJ-hLiq)/(waxMass*m.SpecificHeatLiquid+shellCap), 1
	}
	w := liq - sol
	a := waxMass * w * (m.SpecificHeatLiquid - m.SpecificHeatSolid) / 2
	b := waxMass*(m.HeatOfFusion+w*m.SpecificHeatSolid/2) + shellCap*w
	c := hSol - enthalpyJ
	f := -2 * c / (b + math.Sqrt(math.Max(b*b-4*a*c, 0)))
	// Rounding at the breakpoints may push the root a hair outside [0, 1];
	// NaN (a poisoned enthalpy) passes through for the caller to catch.
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return sol + f*w, f
}

// flatExchange advances a flat wax state by dt seconds exposed to air at
// airC with convective conductance hA (W/K), updating *enthalpyJ in
// place. It returns the heat absorbed from the air in joules (negative
// when the wax is releasing heat into the air) and the number of
// integration sub-steps taken (0 when the exchange was skipped: a
// non-positive hA or dt, or the supercooling guard).
func flatExchange(enc *Enclosure, refC, waxMass, shellCap float64, enthalpyJ *float64, airC, hA, dt float64) (absorbedJ float64, steps int) {
	if hA <= 0 || dt <= 0 {
		return 0, 0
	}
	// Equilibrium enthalpy at the air temperature: relaxation can approach
	// but never cross it within a step, even when the apparent capacity
	// drops sharply at the liquidus.
	eq := flatEnthalpyAt(enc, refC, waxMass, shellCap, airC)
	// Supercooling: solidification cannot begin until the air falls below
	// the freeze onset, so above it stored latent heat stays in (the small
	// sensible cooling of the supercooled liquid is neglected).
	if airC > enc.Material.FreezeOnsetC() && eq < *enthalpyJ {
		return 0, 0
	}
	total := 0.0
	remaining := dt
	for remaining > 0 {
		steps++
		t, f := invertEnthalpy(&enc.Material, refC, waxMass, shellCap, *enthalpyJ)
		g := hA
		if airC < t {
			// Discharge is conduction-limited: solidification grows a
			// crust of low-conductivity solid wax on the container walls,
			// in series with the convective film. (Melting has no such
			// penalty: convection in the melt and jet impingement keep the
			// charge side fast, which is why the paper gets away without
			// the metal mesh of the sprinting work.)
			g = hA / (1 + hA*enc.crustResistance(f))
		}
		cap := shellCap + waxMass*apparentHeat(&enc.Material, t)
		// Sub-step at a quarter of the local time constant, capped.
		tau := cap / g
		h := math.Min(remaining, math.Max(tau/4, 1e-3))
		// Exact relaxation over h for constant capacity:
		// q = cap * (airC - t) * (1 - exp(-g*h/cap)).
		q := cap * (airC - t) * (1 - math.Exp(-g*h/cap))
		next := *enthalpyJ + q
		if (q > 0 && next > eq) || (q < 0 && next < eq) {
			next = eq
			q = next - *enthalpyJ
		}
		if next < 0 {
			next = 0
			q = -*enthalpyJ
		}
		*enthalpyJ = next
		total += q
		remaining -= h
	}
	return total, steps
}

// FlatSolve returns the lumped temperature (degC) and liquid fraction of
// a flat wax state: the scalars a State carries, as returned by
// State.Flat or recorded by a struct-of-arrays driver.
func FlatSolve(enc *Enclosure, refC, waxMass, shellCap, enthalpyJ float64) (tempC, liquidFrac float64) {
	return invertEnthalpy(&enc.Material, refC, waxMass, shellCap, enthalpyJ)
}

// FlatExchangeWithAir is ExchangeWithAir over a flat wax state: it
// advances *enthalpyJ by dt seconds of convective exchange with air at
// airC and returns the heat absorbed from the air (negative on release).
// The arithmetic is the same code path State.ExchangeWithAir runs, so a
// flat driver and a State driver fed identical inputs produce bit-
// identical trajectories. The enclosure carries only fill-independent
// geometry and material constants, so racks degraded to a smaller fill
// may keep sharing their class's enclosure as long as waxMass, shellCap
// and the latent capacity are tracked per rack.
func FlatExchangeWithAir(enc *Enclosure, refC, waxMass, shellCap float64, enthalpyJ *float64, airC, hA, dt float64) (absorbedJ float64) {
	absorbedJ, _ = flatExchange(enc, refC, waxMass, shellCap, enthalpyJ, airC, hA, dt)
	return absorbedJ
}

// Flat returns the scalar state a struct-of-arrays driver needs to
// advance this enclosure with the Flat* primitives: the stored enthalpy,
// the enthalpy reference temperature, the wax mass, and the non-PCM
// (shell) sensible capacity.
func (s *State) Flat() (enthalpyJ, refC, waxMass, shellCapJPerK float64) {
	return s.enthalpyJ, s.refC, s.waxMass, s.shellCapacity
}
