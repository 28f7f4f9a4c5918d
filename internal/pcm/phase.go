package pcm

import (
	"math"

	"repro/internal/obs"
)

// MeltState is the phase of a lumped enclosure as the transition tracker
// sees it.
type MeltState int8

// Melt states in melting order: a move to a higher MeltState is melting,
// to a lower one freezing.
const (
	MeltSolid MeltState = iota
	MeltMixed
	MeltLiquid
)

// FlatPhase classifies a flat wax state (the scalars State.Flat returns)
// as solid, mixed or liquid by its enthalpy against the enthalpies at the
// solidus and liquidus. State classifies through it too, so a flat driver
// and an instrumented State see transitions at the same enthalpy.
func FlatPhase(enc *Enclosure, refC, waxMass, shellCap, enthalpyJ float64) MeltState {
	m := &enc.Material
	hSol := flatEnthalpyAt(enc, refC, waxMass, shellCap, m.SolidusC())
	hLiq := flatEnthalpyAt(enc, refC, waxMass, shellCap, m.LiquidusC())
	// Tolerance keeps float dust at the kinks from flapping transitions.
	tiny := 1e-9 * (math.Abs(hLiq) + 1)
	switch {
	case enthalpyJ <= hSol+tiny:
		return MeltSolid
	case enthalpyJ >= hLiq-tiny:
		return MeltLiquid
	default:
		return MeltMixed
	}
}

// PhaseRecorder turns phase transitions into telemetry: the counters
// pcm.melt_started, pcm.melt_completed, pcm.freeze_started and
// pcm.freeze_completed, and one pcm.melt_start / pcm.melt_complete /
// pcm.freeze_start / pcm.freeze_complete event per counted step, carrying
// the enthalpy after the transition. A nil recorder is a no-op.
type PhaseRecorder struct {
	meltStart, meltDone *obs.Counter
	frzStart, frzDone   *obs.Counter
	events              *obs.EventLog
}

// NewPhaseRecorder registers the transition counters in reg; a nil
// registry returns a nil recorder.
func NewPhaseRecorder(reg *obs.Registry) *PhaseRecorder {
	if reg == nil {
		return nil
	}
	return &PhaseRecorder{
		meltStart: reg.Counter("pcm.melt_started"),
		meltDone:  reg.Counter("pcm.melt_completed"),
		frzStart:  reg.Counter("pcm.freeze_started"),
		frzDone:   reg.Counter("pcm.freeze_completed"),
		events:    reg.Events(),
	}
}

// Record notes the move from phase prev to next at sim time t for the
// enclosure named label. A jump straight across the mushy range counts as
// both a start and a completion.
func (r *PhaseRecorder) Record(t float64, label string, prev, next MeltState, enthalpyJ float64) {
	if r == nil || prev == next {
		return
	}
	if next > prev { // melting direction
		if prev == MeltSolid {
			r.meltStart.Inc()
			r.events.Record(t, "pcm.melt_start", label, enthalpyJ, 0)
		}
		if next == MeltLiquid {
			r.meltDone.Inc()
			r.events.Record(t, "pcm.melt_complete", label, enthalpyJ, 0)
		}
		return
	}
	if prev == MeltLiquid {
		r.frzStart.Inc()
		r.events.Record(t, "pcm.freeze_start", label, enthalpyJ, 0)
	}
	if next == MeltSolid {
		r.frzDone.Inc()
		r.events.Record(t, "pcm.freeze_complete", label, enthalpyJ, 0)
	}
}
