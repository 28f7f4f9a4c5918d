// Package scenario unifies the repo's experiment description into one
// line-based file format: a single .scenario file names the workload (a
// composable workload.GenSpec), the fleet mix, the balancing policy, an
// optional closed-loop autoscale policy, and the fault schedule. The
// same Spec drives core's scenario study, ttsim -scenario, and the serve
// layer's /v1/experiments/scenario endpoint — so the embedded corpus of
// named scenarios doubles as a byte-for-byte regression suite: any
// behavioral drift in workload, fleet, faults or autoscale code breaks a
// pinned golden.
//
// The format is deliberately the same dialect as internal/faults' DSL:
// `#` comments, one directive per line, unit-suffixed time spans (90s,
// 45m, 12h30m, 1d2h). Example:
//
//	workload weekly
//	days 7
//	step 10m
//	mul surge 4d12h ramp 2h factor 1.8 hold 6h
//	fleet 1U=13,2U=10,OCP=4
//	balance thermal
//	autoscale hysteresis
//	fault 4d13h chiller-trip for 45m
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// MixEntry is one slice of the fleet mix, held as a class tag so this
// package stays importable by core (which owns the MachineClass models).
type MixEntry struct {
	// Tag is the canonical class spelling: "1U", "2U" or "OCP".
	Tag string
	// Racks is the slice's rack population.
	Racks int
	// NoWax strips the PCM retrofit from this slice.
	NoWax bool
}

// ClassTags lists the canonical class tags in presentation order.
var ClassTags = []string{"1U", "2U", "OCP"}

// canonicalTag resolves a case-insensitive class tag spelling.
func canonicalTag(tag string) (string, bool) {
	switch strings.ToUpper(strings.TrimSpace(tag)) {
	case "1U":
		return "1U", true
	case "2U":
		return "2U", true
	case "OCP", "OPENCOMPUTE":
		return "OCP", true
	}
	return "", false
}

// Spec is one fully-described experiment: what the load looks like, what
// hardware serves it, how it is balanced and scaled, and what goes wrong.
// Equal Specs describe bit-identical runs; Spec.String() is the canonical
// serialization (Parse(String(s)) == s), which is what the serving layer
// hashes.
type Spec struct {
	// Gen describes the workload.
	Gen workload.GenSpec
	// Mix lists the rack populations in file order.
	Mix []MixEntry
	// Balance is the load-balancing policy (a canonical fleet.Policies()
	// name).
	Balance string
	// Autoscale is the closed-loop decision policy (a canonical
	// autoscale.Policies() name), or "" for open-loop.
	Autoscale string
	// Faults is the injected fault schedule (nil for a clean run).
	Faults *faults.Schedule
}

// Default is the baseline scenario: the paper's two-day diurnal trace on
// the default mixed fleet, least-loaded balancing, open loop, no faults.
func Default() *Spec {
	return &Spec{
		Gen: workload.DefaultGenSpec(),
		Mix: []MixEntry{
			{Tag: "1U", Racks: 13},
			{Tag: "2U", Racks: 10},
			{Tag: "OCP", Racks: 4},
		},
		Balance: "leastloaded",
	}
}

// TotalRacks sums the mix's rack populations.
func (s *Spec) TotalRacks() int {
	n := 0
	for _, m := range s.Mix {
		n += m.Racks
	}
	return n
}

// Validate checks the spec end to end: the workload builds, the mix is
// populated, the policies exist, and every fault targets a rack or class
// the mix actually has.
func (s *Spec) Validate() error {
	_, err := s.Build()
	return err
}

// Build runs every check Validate runs and returns the workload trace the
// spec describes. A spec whose workload section is word for word that of
// an embedded scenario already loaded by Named gets the memoized trace
// rather than a fresh build; either way the trace is bit-identical, and it
// may be shared, so treat it as read-only.
func (s *Spec) Build() (*workload.Trace, error) {
	tr, err := buildGen(s.Gen)
	if err != nil {
		return nil, fmt.Errorf("scenario: workload: %w", err)
	}
	if len(s.Mix) == 0 {
		return nil, fmt.Errorf("scenario: empty fleet mix")
	}
	for _, m := range s.Mix {
		if _, ok := canonicalTag(m.Tag); !ok {
			return nil, fmt.Errorf("scenario: unknown class tag %q in mix", m.Tag)
		}
		if m.Racks <= 0 {
			return nil, fmt.Errorf("scenario: class %s has non-positive rack count %d", m.Tag, m.Racks)
		}
	}
	if !validName(s.Balance, fleet.Policies()) {
		return nil, fmt.Errorf("scenario: unknown balance policy %q (want one of %s)",
			s.Balance, strings.Join(fleet.Policies(), ", "))
	}
	if s.Autoscale != "" && !validName(s.Autoscale, autoscale.Policies()) {
		return nil, fmt.Errorf("scenario: unknown autoscale policy %q (want one of %s)",
			s.Autoscale, strings.Join(autoscale.Policies(), ", "))
	}
	if s.Faults != nil {
		if err := s.Faults.CheckTargets(s.TotalRacks(), len(s.Mix)); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	return tr, nil
}

// validName reports whether name is one of the canonical spellings.
func validName(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// String renders the canonical serialization: every directive in fixed
// section order, spans and numbers in their normal forms. Parsing the
// output reproduces the Spec exactly, which makes this the normal form
// the serving layer canonicalizes requests to.
func (s *Spec) String() string {
	var b strings.Builder
	writeGen(&b, s.Gen)
	b.WriteString("fleet ")
	for i, m := range s.Mix {
		if i > 0 {
			b.WriteByte(',')
		}
		if m.NoWax {
			b.WriteString("nowax:")
		}
		fmt.Fprintf(&b, "%s=%d", m.Tag, m.Racks)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "balance %s\n", s.Balance)
	if s.Autoscale != "" {
		fmt.Fprintf(&b, "autoscale %s\n", s.Autoscale)
	}
	if s.Faults != nil {
		for _, e := range s.Faults.Events() {
			fmt.Fprintf(&b, "fault %s\n", e)
		}
	}
	return b.String()
}

// writeGen renders the workload section of the canonical serialization.
// It is also the memo key for corpus traces (genKey), so two GenSpecs
// that render alike build bit-identical traces.
func writeGen(b *strings.Builder, g workload.GenSpec) {
	fmt.Fprintf(b, "workload %s\n", g.Pattern)
	fmt.Fprintf(b, "days %d\n", g.Days)
	fmt.Fprintf(b, "step %s\n", faults.FormatSpan(g.StepS))
	fmt.Fprintf(b, "seed %d\n", g.Seed)
	fmt.Fprintf(b, "mean %s\n", fnum(g.MeanUtil))
	fmt.Fprintf(b, "peak %s\n", fnum(g.PeakUtil))
	fmt.Fprintf(b, "noise %s\n", fnum(g.NoiseAmp))
	fmt.Fprintf(b, "sharpness %s\n", fnum(g.PeakSharpness))
	if g.WeekendDamping != 0 {
		fmt.Fprintf(b, "damping %s\n", fnum(g.WeekendDamping))
	}
	for _, smp := range g.Samples {
		fmt.Fprintf(b, "sample %s %s\n", faults.FormatSpan(smp.AtS), fnum(smp.Util))
	}
	for _, c := range g.Components {
		b.WriteString(formatComponent(c))
		b.WriteByte('\n')
	}
}

// formatComponent renders one component directive in canonical form.
func formatComponent(c workload.Component) string {
	if c.Kind == workload.CompSeason {
		return fmt.Sprintf("%s season period %s amp %s",
			c.Op, faults.FormatSpan(c.PeriodS), fnum(c.Value))
	}
	valueWord := "peak"
	if c.Op == workload.OpMul {
		valueWord = "factor"
	}
	out := fmt.Sprintf("%s %s %s ramp %s %s %s",
		c.Op, c.Kind, faults.FormatSpan(c.AtS), faults.FormatSpan(c.RampS), valueWord, fnum(c.Value))
	if c.HoldS != 0 {
		out += fmt.Sprintf(" hold %s", faults.FormatSpan(c.HoldS))
	}
	return out
}

// fnum renders a float in its shortest exact spelling.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
