package pcm

import (
	"math"
	"testing"
)

// testEnclosure builds the validation-style enclosure used by the flat
// equivalence tests.
func testEnclosure(t *testing.T) *Enclosure {
	t.Helper()
	mat := ValidationParaffin()
	enc, err := NewEnclosure(mat, Box{LengthM: 0.10, WidthM: 0.05, HeightM: 0.02}, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestFlatExchangeMatchesState drives a State and a flat scalar copy of it
// through the same melt/freeze air profile and requires bit-identical
// enthalpy trajectories and heat flows: the flat primitives are the same
// code path the State methods run, and this pins the delegation.
func TestFlatExchangeMatchesState(t *testing.T) {
	enc := testEnclosure(t)
	st, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	h, refC, waxMass, shellCap := st.Flat()

	hA := 4.5
	dt := 600.0
	for i := 0; i < 400; i++ {
		// A diurnal-ish air profile swinging through the melt range, with
		// excursions past both the solidus and the freeze onset.
		airC := 35 + 18*math.Sin(float64(i)/40) + 4*math.Sin(float64(i)/7)
		qState := st.ExchangeWithAir(airC, hA, dt)
		qFlat := FlatExchangeWithAir(enc, refC, waxMass, shellCap, &h, airC, hA, dt)
		if math.Float64bits(qState) != math.Float64bits(qFlat) {
			t.Fatalf("step %d: absorbed heat diverged: state %v flat %v", i, qState, qFlat)
		}
		se, _, _, _ := st.Flat()
		if math.Float64bits(se) != math.Float64bits(h) {
			t.Fatalf("step %d: enthalpy diverged: state %v flat %v", i, se, h)
		}
		tState, fState := st.Temperature(), st.LiquidFraction()
		tFlat, fFlat := FlatSolve(enc, refC, waxMass, shellCap, h)
		if math.Float64bits(tState) != math.Float64bits(tFlat) ||
			math.Float64bits(fState) != math.Float64bits(fFlat) {
			t.Fatalf("step %d: solve diverged: state (%v, %v) flat (%v, %v)",
				i, tState, fState, tFlat, fFlat)
		}
	}
}

// TestFlatExchangeGuards pins the skip paths: non-positive conductance or
// step, and the supercooling guard, must leave the state untouched.
func TestFlatExchangeGuards(t *testing.T) {
	enc := testEnclosure(t)
	st, err := NewState(enc, enc.Material.LiquidusC()+5) // fully liquid
	if err != nil {
		t.Fatal(err)
	}
	h, refC, waxMass, shellCap := st.Flat()
	for _, tc := range []struct{ airC, hA, dt float64 }{
		{30, 0, 600}, // no conductance
		{30, 5, 0},   // no time
		{30, 5, -1},  // negative time
		{enc.Material.FreezeOnsetC() + 0.5, 5, 600}, // supercooled: above onset, cooling
	} {
		before := h
		if q := FlatExchangeWithAir(enc, refC, waxMass, shellCap, &h, tc.airC, tc.hA, tc.dt); q != 0 {
			t.Errorf("airC=%v hA=%v dt=%v: absorbed %v, want 0", tc.airC, tc.hA, tc.dt, q)
		}
		if h != before {
			t.Errorf("airC=%v hA=%v dt=%v: enthalpy moved %v -> %v", tc.airC, tc.hA, tc.dt, before, h)
		}
	}
}

// TestFlatExchangeZeroAllocs pins the flat hot path allocation-free: the
// fleet's compiled epoch kernel calls it once per wax rack per epoch.
func TestFlatExchangeZeroAllocs(t *testing.T) {
	enc := testEnclosure(t)
	st, err := NewState(enc, 25)
	if err != nil {
		t.Fatal(err)
	}
	h, refC, waxMass, shellCap := st.Flat()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		airC := 35 + 18*math.Sin(float64(i)/40)
		i++
		FlatExchangeWithAir(enc, refC, waxMass, shellCap, &h, airC, 4.5, 600)
		FlatSolve(enc, refC, waxMass, shellCap, h)
	})
	if allocs != 0 {
		t.Errorf("flat exchange allocates %v per call, want 0", allocs)
	}
}

// bisectEnthalpy is the slow-but-obvious oracle for invertEnthalpy. The
// temperature comes from halving a bracket on the forward curve
// waxMass*Enthalpy(T) + shellCap*(T-refC) until the bracket stops
// shrinking. The liquid fraction comes from a second bisection on the
// mushy-zone enthalpy written out term by term, which also covers a sharp
// melt, where T alone cannot tell how much has melted.
func bisectEnthalpy(m *Material, refC, waxMass, shellCap, enthalpyJ float64) (tempC, liquidFrac float64) {
	total := func(t float64) float64 { return waxMass*m.Enthalpy(t, refC) + shellCap*(t-refC) }
	lo, hi := math.Min(refC, m.SolidusC())-1, math.Max(refC, m.LiquidusC())+1
	for step := 1.0; total(lo) > enthalpyJ; step *= 2 {
		lo -= step
	}
	for step := 1.0; total(hi) < enthalpyJ; step *= 2 {
		hi += step
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if total(mid) < enthalpyJ {
			lo = mid
		} else {
			hi = mid
		}
	}
	tempC = lo + (hi-lo)/2

	sol, w := m.SolidusC(), m.MeltRangeK
	refW := math.Min(refC, sol)
	mushy := func(f float64) float64 {
		latent := f * m.HeatOfFusion
		sensible := f * w * (m.SpecificHeatSolid + f*(m.SpecificHeatLiquid-m.SpecificHeatSolid)) / 2
		return waxMass*(m.SpecificHeatSolid*(sol-refW)+latent+sensible) + shellCap*(sol+f*w-refC)
	}
	switch {
	case enthalpyJ <= mushy(0):
		return tempC, 0
	case enthalpyJ >= mushy(1):
		return tempC, 1
	}
	flo, fhi := 0.0, 1.0
	for {
		mid := flo + (fhi-flo)/2
		if mid <= flo || mid >= fhi {
			break
		}
		if mushy(mid) < enthalpyJ {
			flo = mid
		} else {
			fhi = mid
		}
	}
	return tempC, flo + (fhi-flo)/2
}

// TestInvertEnthalpyMatchesBisection sweeps enthalpy densely through all
// three phases and requires the closed-form inversion to agree with the
// bisection oracle within 1e-9 K and 1e-9 liquid fraction: for every
// Table 1 family, the validation paraffin, a sharp melt and a liquid
// lighter in heat capacity than its solid, each with a shell, without
// one, and with a reference above the solidus.
func TestInvertEnthalpyMatchesBisection(t *testing.T) {
	mats := append(Families(), ValidationParaffin())
	sharp := ValidationParaffin()
	sharp.Name, sharp.MeltRangeK = "sharp melt", 0
	thin := ValidationParaffin()
	thin.Name, thin.SpecificHeatLiquid = "liquid cl < cs", 0.6*thin.SpecificHeatSolid
	mats = append(mats, sharp, thin)

	const tolT, tolF = 1e-9, 1e-9
	for i := range mats {
		m := &mats[i]
		sol, liq := m.SolidusC(), m.LiquidusC()
		for _, tc := range []struct {
			name                    string
			refC, waxMass, shellCap float64
		}{
			{"enclosure", sol - 20, 0.18, 150},
			{"no shell", sol - 20, 0.18, 0},
			{"ref above solidus", sol + 3, 0.18, 150},
		} {
			total := func(temp float64) float64 {
				return tc.waxMass*m.Enthalpy(temp, tc.refC) + tc.shellCap*(temp-tc.refC)
			}
			hLo := total(sol - 15)
			hHi := total(liq+15) + tc.waxMass*m.HeatOfFusion // past a sharp melt's latent step
			const n = 4000
			for k := 0; k <= n; k++ {
				h := hLo + (hHi-hLo)*float64(k)/n
				gotT, gotF := invertEnthalpy(m, tc.refC, tc.waxMass, tc.shellCap, h)
				wantT, wantF := bisectEnthalpy(m, tc.refC, tc.waxMass, tc.shellCap, h)
				if math.Abs(gotT-wantT) > tolT || math.Abs(gotF-wantF) > tolF || !(gotF >= 0 && gotF <= 1) {
					t.Fatalf("%s/%s: H=%v: closed form (%v K, f=%v), bisection (%v K, f=%v)",
						m.Name, tc.name, h, gotT, gotF, wantT, wantF)
				}
			}
		}
	}
}

// BenchmarkFlatSolve times the enthalpy inversion per phase on the
// validation enclosure; the closed form should price all three alike.
func BenchmarkFlatSolve(b *testing.B) {
	mat := ValidationParaffin()
	enc, err := NewEnclosure(mat, Box{LengthM: 0.10, WidthM: 0.05, HeightM: 0.02}, 2, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	for _, ph := range []struct {
		name  string
		tempC float64
	}{
		{"solid", mat.SolidusC() - 5},
		{"mushy", mat.MeltingPointC},
		{"liquid", mat.LiquidusC() + 5},
	} {
		st, err := NewState(enc, ph.tempC)
		if err != nil {
			b.Fatal(err)
		}
		h, refC, waxMass, shellCap := st.Flat()
		b.Run(ph.name, func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				t, f := FlatSolve(enc, refC, waxMass, shellCap, h)
				sink += t + f
			}
			benchSink = sink
		})
	}
}

var benchSink float64
