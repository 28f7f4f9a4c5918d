// Package pcm models phase change materials: thermophysical properties of
// the candidate materials from the paper's Table 1, the enthalpy-
// temperature relation of a solid-liquid PCM with a finite melting range,
// the sealed-container enclosures the wax ships in, and the runtime phase
// state machine that absorbs and releases heat.
package pcm

import (
	"fmt"

	"repro/internal/units"
)

// Phase identifies the transformation class of a PCM (the paper's Section
// 2.1 surveys all four and selects solid-liquid for datacenter use).
type Phase int

const (
	SolidLiquid Phase = iota
	SolidSolid
	LiquidGas
	SolidGas
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case SolidLiquid:
		return "solid-liquid"
	case SolidSolid:
		return "solid-solid"
	case LiquidGas:
		return "liquid-gas"
	case SolidGas:
		return "solid-gas"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Stability grades how well a material survives repeated melt/freeze
// cycles (Table 1's "PCM Stability" column).
type Stability int

const (
	StabilityUnknown Stability = iota
	StabilityPoor
	StabilityGood
	StabilityVeryGood
	StabilityExcellent
)

// String implements fmt.Stringer.
func (s Stability) String() string {
	switch s {
	case StabilityPoor:
		return "Poor"
	case StabilityGood:
		return "Good"
	case StabilityVeryGood:
		return "Very Good"
	case StabilityExcellent:
		return "Excellent"
	default:
		return "Unknown"
	}
}

// Material holds the thermophysical and economic properties of a PCM.
// Temperatures are degC, specific energies J/kg, densities kg/m^3, specific
// heats J/(kg*K), conductivities W/(m*K), and costs US dollars per metric
// ton.
type Material struct {
	Name  string
	Class string // Table 1 family: "Salt Hydrates", "n-Paraffins", ...
	Phase Phase

	MeltingPointC float64 // nominal melting temperature
	MeltRangeK    float64 // width of the mushy zone; 0 means sharp

	HeatOfFusion  float64 // J/kg
	DensitySolid  float64 // kg/m^3
	DensityLiquid float64

	// FreezeHysteresisK is the supercooling below the liquidus needed
	// before solidification (and hence latent release) begins. Paraffin
	// blends typically need 1-3 K; the equilibrium curve alone would
	// release heat the moment the air falls below the wax temperature.
	FreezeHysteresisK float64

	SpecificHeatSolid  float64 // J/(kg*K)
	SpecificHeatLiquid float64

	Conductivity float64 // W/(m*K), bulk

	Stability              Stability
	Corrosive              bool
	ElectricallyConductive bool

	CostPerTon float64 // USD per metric ton; 0 if unknown
}

// Validate reports whether the material is self-consistent enough to
// simulate.
func (m *Material) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("pcm: material has no name")
	case m.HeatOfFusion <= 0:
		return fmt.Errorf("pcm: %s: non-positive heat of fusion %v", m.Name, m.HeatOfFusion)
	case m.DensitySolid <= 0 || m.DensityLiquid <= 0:
		return fmt.Errorf("pcm: %s: non-positive density", m.Name)
	case m.SpecificHeatSolid <= 0 || m.SpecificHeatLiquid <= 0:
		return fmt.Errorf("pcm: %s: non-positive specific heat", m.Name)
	case m.MeltRangeK < 0:
		return fmt.Errorf("pcm: %s: negative melt range", m.Name)
	case m.FreezeHysteresisK < 0:
		return fmt.Errorf("pcm: %s: negative freeze hysteresis", m.Name)
	}
	return nil
}

// FreezeOnsetC returns the air temperature below which latent release
// (solidification) can begin: the liquidus minus the supercooling
// hysteresis.
func (m *Material) FreezeOnsetC() float64 { return m.LiquidusC() - m.FreezeHysteresisK }

// SolidusC returns the temperature at which melting begins.
func (m *Material) SolidusC() float64 { return m.MeltingPointC - m.MeltRangeK/2 }

// LiquidusC returns the temperature at which melting completes.
func (m *Material) LiquidusC() float64 { return m.MeltingPointC + m.MeltRangeK/2 }

// EnergyDensity returns the volumetric latent storage in J/m^3 using the
// solid density (the paper's "energy density is proportional to the heat of
// fusion and density").
func (m *Material) EnergyDensity() float64 {
	return m.HeatOfFusion * m.DensitySolid
}

// Enthalpy returns the specific enthalpy h(T) in J/kg relative to a
// reference of 0 J/kg at refC in the solid phase. The curve is:
//
//	solid sensible heat up to the solidus, a linear latent ramp across the
//	melt range (or a step for MeltRangeK == 0), then liquid sensible heat.
func (m *Material) Enthalpy(tempC, refC float64) float64 {
	sol, liq := m.SolidusC(), m.LiquidusC()
	// Clamp the reference into the solid region for a clean baseline.
	if refC > sol {
		refC = sol
	}
	switch {
	case tempC <= sol:
		return m.SpecificHeatSolid * (tempC - refC)
	case tempC >= liq:
		return m.SpecificHeatSolid*(sol-refC) + m.HeatOfFusion + mushySensible(m, 1) +
			m.SpecificHeatLiquid*(tempC-liq)
	default:
		frac := (tempC - sol) / (liq - sol)
		return m.SpecificHeatSolid*(sol-refC) + frac*m.HeatOfFusion + mushySensible(m, frac)
	}
}

// TemperatureFromEnthalpy inverts Enthalpy: given h (J/kg relative to refC
// solid), it returns the temperature and liquid fraction. It is the
// closed-form enclosure inversion (invertEnthalpy) for one kilogram of wax
// and no shell.
func (m *Material) TemperatureFromEnthalpy(h, refC float64) (tempC, liquidFrac float64) {
	return invertEnthalpy(m, refC, 1, 0, h)
}

// mushySensible returns the sensible component of enthalpy accumulated in
// the mushy zone up to liquid fraction frac.
func mushySensible(m *Material, frac float64) float64 {
	width := m.LiquidusC() - m.SolidusC()
	return frac * width * (m.SpecificHeatSolid + frac*(m.SpecificHeatLiquid-m.SpecificHeatSolid)) / 2
}

// MassForVolume returns the mass (kg) of solid-phase material filling the
// given volume in liters.
func (m *Material) MassForVolume(liters float64) float64 {
	return units.LitersToCubicMeters(liters) * m.DensitySolid
}

// LatentCapacity returns the total latent heat (J) stored by melting the
// given liters of material.
func (m *Material) LatentCapacity(liters float64) float64 {
	return m.MassForVolume(liters) * m.HeatOfFusion
}

// ExpansionHeadroom returns the fractional extra volume a sealed container
// must reserve for melting expansion: V_liquid/V_solid - 1 for the same
// mass. The paper leaves 10 ml of airspace over 90 ml of wax for this.
func (m *Material) ExpansionHeadroom() float64 {
	return m.DensitySolid/m.DensityLiquid - 1
}

// CostForVolume returns the USD cost of filling the given liters, or 0 if
// the material has no quoted cost.
func (m *Material) CostForVolume(liters float64) float64 {
	if m.CostPerTon <= 0 {
		return 0
	}
	tons := m.MassForVolume(liters) / 1000
	return tons * m.CostPerTon
}
