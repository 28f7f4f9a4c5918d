package scenario

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/workload"
)

// The grammar, one directive per line, `#` comments, blank lines ignored:
//
//	workload <diurnal|weekly|flat|trace>
//	days <n>
//	step <span>
//	seed <n>
//	mean <f>            peak <f>           noise <f>
//	sharpness <f>       damping <f>
//	sample <span> <util>                        (trace control points, time-ordered)
//	add spike <at> ramp <span> peak <f> [hold <span>]
//	mul spike <at> ramp <span> factor <f> [hold <span>]
//	add surge <at> ramp <span> peak <f> [hold <span>]
//	mul surge <at> ramp <span> factor <f> [hold <span>]
//	add season period <span> amp <f>
//	mul season period <span> amp <f>
//	fleet <tag=racks[,tag=racks...]>            (tags 1U/2U/OCP, nowax: prefix)
//	balance <roundrobin|leastloaded|thermal|faultaware>
//	autoscale <threshold|hysteresis|prefreeze>
//	fault <faults-DSL line>                     (time-ordered, internal/faults grammar)
//
// Scalar directives may appear at most once; omitted ones take the
// Default() values. Spans are the faults package's unit-suffixed grammar
// (90s, 45m, 12h30m, 1d2h).

// directiveList names every directive for unknown-directive errors.
const directiveList = "workload, days, step, seed, mean, peak, noise, sharpness, damping, sample, add, mul, fleet, balance, autoscale, fault"

// Parse reads the scenario format into a validated Spec.
func Parse(r io.Reader) (*Spec, error) {
	spec, err := read(r)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// read parses the scenario text into a Spec without the end-to-end
// checks (Spec.Build) that Parse adds.
func read(r io.Reader) (*Spec, error) {
	spec := Default()
	seen := map[string]bool{}
	var events []faults.Event
	lastSampleAt := -1.0
	lastFaultAt := 0.0
	haveFaults := false

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("scenario: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		dir := fields[0]
		switch dir {
		case "workload", "days", "step", "seed", "mean", "peak", "noise",
			"sharpness", "damping", "fleet", "balance", "autoscale":
			if seen[dir] {
				return nil, bad("duplicate %s directive", dir)
			}
			seen[dir] = true
		}
		switch dir {
		case "workload":
			if len(fields) != 2 {
				return nil, bad("workload needs a pattern name")
			}
			p, err := workload.ParsePattern(fields[1])
			if err != nil {
				return nil, bad("%v", err)
			}
			spec.Gen.Pattern = p
		case "days":
			n, err := intField(fields, "days")
			if err != nil {
				return nil, bad("%v", err)
			}
			if n <= 0 || n > 400 {
				return nil, bad("days %d outside [1, 400]", n)
			}
			spec.Gen.Days = n
		case "step":
			v, err := spanField(fields, "step")
			if err != nil {
				return nil, bad("%v", err)
			}
			if v < 30 || v > 6*3600 {
				return nil, bad("step %s outside [30s, 6h]", faults.FormatSpan(v))
			}
			spec.Gen.StepS = v
		case "seed":
			if len(fields) != 2 {
				return nil, bad("seed needs an integer")
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, bad("bad seed %q", fields[1])
			}
			spec.Gen.Seed = n
		case "mean", "peak", "noise", "sharpness", "damping":
			v, err := floatField(fields, dir)
			if err != nil {
				return nil, bad("%v", err)
			}
			switch dir {
			case "mean":
				spec.Gen.MeanUtil = v
			case "peak":
				spec.Gen.PeakUtil = v
			case "noise":
				spec.Gen.NoiseAmp = v
			case "sharpness":
				spec.Gen.PeakSharpness = v
			case "damping":
				spec.Gen.WeekendDamping = v
			}
		case "sample":
			if len(fields) != 3 {
				return nil, bad("sample needs <time> <util>")
			}
			at, err := faults.ParseSpan(fields[1])
			if err != nil {
				return nil, bad("bad sample time %q: %v", fields[1], err)
			}
			util, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, bad("bad sample util %q", fields[2])
			}
			if at < lastSampleAt {
				return nil, bad("sample time %s is before the previous sample's %s (samples must be in time order)",
					faults.FormatSpan(at), faults.FormatSpan(lastSampleAt))
			}
			lastSampleAt = at
			spec.Gen.Samples = append(spec.Gen.Samples, workload.Sample{AtS: at, Util: util})
		case "add", "mul":
			c, err := parseComponent(fields)
			if err != nil {
				return nil, bad("%v", err)
			}
			spec.Gen.Components = append(spec.Gen.Components, c)
		case "fleet":
			if len(fields) != 2 {
				return nil, bad("fleet needs a mix like 1U=13,2U=10,OCP=4")
			}
			mix, err := parseMix(fields[1])
			if err != nil {
				return nil, bad("%v", err)
			}
			spec.Mix = mix
		case "balance":
			if len(fields) != 2 {
				return nil, bad("balance needs a policy name")
			}
			spec.Balance = fields[1]
		case "autoscale":
			if len(fields) != 2 {
				return nil, bad("autoscale needs a policy name")
			}
			spec.Autoscale = fields[1]
		case "fault":
			if len(fields) < 2 {
				return nil, bad("fault needs a faults-DSL event")
			}
			sub, err := faults.ParseScheduleString(strings.Join(fields[1:], " "))
			if err != nil {
				return nil, bad("%s", stripFaultsPrefix(err))
			}
			evs := sub.Events()
			if evs[0].AtS < lastFaultAt {
				return nil, bad("fault time %s is before the previous fault's %s (faults must be in time order)",
					faults.FormatSpan(evs[0].AtS), faults.FormatSpan(lastFaultAt))
			}
			lastFaultAt = evs[0].AtS
			haveFaults = true
			events = append(events, evs...)
		default:
			return nil, bad("unknown directive %q (want one of %s)", dir, directiveList)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: read: %w", err)
	}

	if haveFaults {
		sched, err := faults.NewSchedule(events)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s", stripFaultsPrefix(err))
		}
		spec.Faults = sched
	}
	if len(spec.Gen.Samples) > 0 && spec.Gen.Pattern != workload.PatternTrace {
		return nil, fmt.Errorf("scenario: sample lines need \"workload trace\", have %q", spec.Gen.Pattern.String())
	}
	return spec, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Spec, error) {
	return Parse(strings.NewReader(s))
}

// parseComponent parses an `add`/`mul` directive's fields.
func parseComponent(fields []string) (workload.Component, error) {
	var c workload.Component
	if fields[0] == "mul" {
		c.Op = workload.OpMul
	}
	if len(fields) < 2 {
		return c, fmt.Errorf("%s needs a component kind (spike, surge or season)", fields[0])
	}
	valueWord := "peak"
	if c.Op == workload.OpMul {
		valueWord = "factor"
	}
	switch fields[1] {
	case "season":
		// add|mul season period <span> amp <f>
		if len(fields) != 6 || fields[2] != "period" || fields[4] != "amp" {
			return c, fmt.Errorf("want: %s season period <span> amp <value>", fields[0])
		}
		c.Kind = workload.CompSeason
		var err error
		if c.PeriodS, err = faults.ParseSpan(fields[3]); err != nil {
			return c, fmt.Errorf("bad season period %q: %v", fields[3], err)
		}
		if c.Value, err = strconv.ParseFloat(fields[5], 64); err != nil {
			return c, fmt.Errorf("bad season amp %q", fields[5])
		}
	case "spike", "surge":
		// add|mul spike|surge <at> ramp <span> peak|factor <f> [hold <span>]
		c.Kind = workload.CompSpike
		if fields[1] == "surge" {
			c.Kind = workload.CompSurge
		}
		if len(fields) != 7 && len(fields) != 9 {
			return c, fmt.Errorf("want: %s %s <time> ramp <span> %s <value> [hold <span>]",
				fields[0], fields[1], valueWord)
		}
		var err error
		if c.AtS, err = faults.ParseSpan(fields[2]); err != nil {
			return c, fmt.Errorf("bad %s time %q: %v", fields[1], fields[2], err)
		}
		if fields[3] != "ramp" {
			return c, fmt.Errorf("expected \"ramp\", found %q", fields[3])
		}
		if c.RampS, err = faults.ParseSpan(fields[4]); err != nil {
			return c, fmt.Errorf("bad ramp %q: %v", fields[4], err)
		}
		if fields[5] != valueWord {
			return c, fmt.Errorf("expected %q (an %s component's amplitude word), found %q",
				valueWord, fields[0], fields[5])
		}
		if c.Value, err = strconv.ParseFloat(fields[6], 64); err != nil {
			return c, fmt.Errorf("bad %s %q", valueWord, fields[6])
		}
		if len(fields) == 9 {
			if fields[7] != "hold" {
				return c, fmt.Errorf("expected \"hold\", found %q", fields[7])
			}
			if c.HoldS, err = faults.ParseSpan(fields[8]); err != nil {
				return c, fmt.Errorf("bad hold %q: %v", fields[8], err)
			}
		}
	default:
		return c, fmt.Errorf("unknown component kind %q (want spike, surge or season)", fields[1])
	}
	return c, nil
}

// parseMix parses the fleet directive's tag=racks list.
func parseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		tag, count, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fleet mix entry %q: want tag=racks", part)
		}
		var m MixEntry
		if rest, found := strings.CutPrefix(strings.ToLower(tag), "nowax:"); found {
			m.NoWax = true
			tag = rest
		}
		canon, ok := canonicalTag(tag)
		if !ok {
			return nil, fmt.Errorf("fleet mix entry %q: unknown class tag (want 1U, 2U, OCP)", part)
		}
		m.Tag = canon
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("fleet mix entry %q: rack count must be a positive integer", part)
		}
		m.Racks = n
		mix = append(mix, m)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty fleet mix %q", s)
	}
	return mix, nil
}

// intField parses a single-integer directive.
func intField(fields []string, name string) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("%s needs an integer", name)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, fields[1])
	}
	return n, nil
}

// floatField parses a single-number directive.
func floatField(fields []string, name string) (float64, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("%s needs a number", name)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, fields[1])
	}
	return v, nil
}

// spanField parses a single-span directive.
func spanField(fields []string, name string) (float64, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("%s needs a time span", name)
	}
	v, err := faults.ParseSpan(fields[1])
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", name, fields[1], err)
	}
	return v, nil
}

// stripFaultsPrefix drops the faults package's own "faults: line 1:"
// context from an error that scenario re-wraps with the real line number.
func stripFaultsPrefix(err error) string {
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "faults: line 1: ")
	return strings.TrimPrefix(msg, "faults: ")
}
