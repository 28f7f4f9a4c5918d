package main

import (
	"time"

	"repro/internal/fleet"
)

// timedPolicy is a fleet.Policy that delegates every call to inner and
// adds up the host time Assign takes. The fleet calls Assign once per
// epoch from its sequential section, so the counters need no lock. When
// marks is non-nil it also records the time of every call: the epoch
// clock the fleet-warehouse workload reads epoch durations from.
type timedPolicy struct {
	inner fleet.Policy
	calls int
	busy  time.Duration
	marks []time.Time
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Assign(demand float64, racks []fleet.RackView, out []float64) {
	start := time.Now()
	if p.marks != nil {
		p.marks = append(p.marks, start)
	}
	p.inner.Assign(demand, racks, out)
	p.busy += time.Since(start)
	p.calls++
}

// timedScaler is a fleet.Scaler that delegates every call to inner and
// adds up the host time Control takes (Control also runs in the fleet's
// sequential section).
type timedScaler struct {
	inner fleet.Scaler
	calls int
	busy  time.Duration
}

func (s *timedScaler) Name() string { return s.inner.Name() }

func (s *timedScaler) Reset(info fleet.ScaleInfo) { s.inner.Reset(info) }

func (s *timedScaler) Control(tS, dtS, demand float64, racks []fleet.RackView, ceil []float64) float64 {
	start := time.Now()
	off := s.inner.Control(tS, dtS, demand, racks, ceil)
	s.busy += time.Since(start)
	s.calls++
	return off
}

// perCallUS returns the mean microseconds per call of a timed wrapper.
func perCallUS(busy time.Duration, calls int) float64 {
	return float64(busy) / float64(time.Microsecond) / float64(max(calls, 1))
}
