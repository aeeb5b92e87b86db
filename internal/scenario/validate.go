package scenario

import (
	"fmt"
	"strings"
)

// FieldError pins one validation failure to the spec field that caused
// it, in the bracketed path syntax clients can map back onto their JSON
// ("devices[2].type", "sweep[0].values[3]").
type FieldError struct {
	Path string `json:"path"`
	Msg  string `json:"msg"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Path + ": " + e.Msg }

// ValidationError collects every field failure of one Validate pass. The
// serving layer serializes Fields into its structured error body.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error: the first failure, with a count of the rest.
func (e *ValidationError) Error() string {
	switch len(e.Fields) {
	case 0:
		return "scenario: invalid spec"
	case 1:
		return "scenario: invalid spec: " + e.Fields[0].Error()
	default:
		return fmt.Sprintf("scenario: invalid spec: %s (and %d more)",
			e.Fields[0].Error(), len(e.Fields)-1)
	}
}

func (e *ValidationError) add(path, format string, args ...any) {
	e.Fields = append(e.Fields, FieldError{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// Device types a spec may name.
var deviceTypes = map[string]bool{
	"phone": true, "lightbulb": true, "keyfob": true, "smartwatch": true,
}

// Attack goals a spec may name ("" = inject).
var goals = map[string]bool{
	"": true, "inject": true, "none": true, "hijack-slave": true,
	"hijack-master": true, "mitm": true, "update": true,
}

// Payload names a spec may use ("" = the victim type's default).
var payloads = map[string]bool{
	"": true, "terminate": true, "toggle": true, "power-off": true,
	"color": true, "feature": true,
}

// bulbPayloads only make sense against a lightbulb victim.
var bulbPayloads = map[string]bool{"toggle": true, "power-off": true, "color": true}

// Validate checks a decoded spec semantically and against the admission
// limits, before any world is built. trials is the job's per-point trial
// count (≤ 0 means the serving default of 25); it feeds the total
// sim-time budget check. A failure is always a *ValidationError carrying
// structured field paths.
func Validate(s Spec, trials int, lim Limits) error {
	_, err := Admit(s, trials, lim)
	return err
}

// Admitted is a spec that passed Validate, holding the sweep expansion
// validation computed so that compiling it expands nothing again.
type Admitted struct {
	spec     Spec
	variants []Variant
}

// Admit validates s exactly as Validate does and returns it admitted.
func Admit(s Spec, trials int, lim Limits) (*Admitted, error) {
	if trials <= 0 {
		trials = 25
	}
	ve := &ValidationError{}
	validateScalars(&s, lim, ve, "")
	validateSweepDecl(&s, lim, ve)
	if len(ve.Fields) > 0 {
		return nil, ve
	}
	variants, err := Expand(s)
	if err != nil {
		return nil, err
	}
	if len(variants) > lim.MaxPoints {
		ve.add("sweep", "%d points exceed the limit %d", len(variants), lim.MaxPoints)
		return nil, ve
	}
	var total float64
	for k := range variants {
		vv := &ValidationError{}
		validateScalars(&variants[k].Spec, lim, vv, fmt.Sprintf("sweep.points[%d].", k))
		if len(vv.Fields) > 0 {
			ve.Fields = append(ve.Fields, vv.Fields...)
			return nil, ve
		}
		total += simSeconds(variants[k].Spec)
	}
	total *= float64(trials)
	if total > lim.MaxTotalSimSeconds {
		ve.add("run.sim_seconds",
			"job asks for %.0f simulated seconds (%d points × %d trials) but the admission limit is %.0f",
			total, len(variants), trials, lim.MaxTotalSimSeconds)
		return nil, ve
	}
	return &Admitted{spec: s, variants: variants}, nil
}

// simSeconds is a spec's per-trial virtual-time budget with the default
// applied.
func simSeconds(s Spec) float64 {
	if s.Run != nil && s.Run.SimSeconds > 0 {
		return s.Run.SimSeconds
	}
	return 120
}

// validName allows letters, digits and "._-/" — safe in campaign headers,
// cache keys and file names.
func validName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-' || r == '/':
		default:
			return false
		}
	}
	return len(s) <= 64
}

// validateScalars checks every non-sweep field of one spec (the base spec
// or one expanded variant, with prefix re-pathing errors onto the point).
func validateScalars(s *Spec, lim Limits, ve *ValidationError, prefix string) {
	p := func(path string) string { return prefix + path }
	if s.Version != Version {
		ve.add(p("version"), "unsupported version %d (this daemon speaks %d)", s.Version, Version)
	}
	if !validName(s.Name) {
		ve.add(p("name"), "name %q: want ≤ 64 characters from [a-zA-Z0-9._/-]", s.Name)
	}

	if len(s.Devices) > lim.MaxDevices {
		ve.add(p("devices"), "%d devices exceed the limit %d", len(s.Devices), lim.MaxDevices)
	}
	phones, peripherals := 0, 0
	names := map[string]int{}
	for i, d := range s.Devices {
		fp := fmt.Sprintf("devices[%d]", i)
		if !deviceTypes[d.Type] {
			ve.add(p(fp+".type"), "unknown device type %q (want phone, lightbulb, keyfob or smartwatch)", d.Type)
			continue
		}
		if d.Type == "phone" {
			phones++
			if phones > 1 {
				ve.add(p(fp+".type"), "a second phone: a scenario has exactly one central")
			}
		} else {
			peripherals++
		}
		if !validName(d.Name) {
			ve.add(p(fp+".name"), "name %q: want ≤ 64 characters from [a-zA-Z0-9._/-]", d.Name)
		}
		if d.Name != "" {
			if prev, dup := names[d.Name]; dup {
				ve.add(p(fp+".name"), "duplicate name %q (also devices[%d])", d.Name, prev)
			}
			names[d.Name] = i
		}
		if d.ClockPPM < 0 || d.ClockPPM > 10000 {
			ve.add(p(fp+".clock_ppm"), "clock accuracy %v ppm out of range [0,10000]", d.ClockPPM)
		}
		if d.ClockJitterUS < 0 || d.ClockJitterUS > 1e6 {
			ve.add(p(fp+".clock_jitter_us"), "jitter %v µs out of range [0,1e6]", d.ClockJitterUS)
		}
	}
	if len(s.Devices) > 0 {
		if phones == 0 {
			ve.add(p("devices"), "no central: add a device with type \"phone\"")
		}
		if peripherals == 0 {
			ve.add(p("devices"), "no peripheral: the first non-phone device is the attack victim")
		}
	}

	if len(s.Walls) > lim.MaxWalls {
		ve.add(p("walls"), "%d walls exceed the limit %d", len(s.Walls), lim.MaxWalls)
	}
	for i, w := range s.Walls {
		fp := fmt.Sprintf("walls[%d]", i)
		if w.A == w.B {
			ve.add(p(fp), "zero-length wall at (%v,%v)", w.A.X, w.A.Y)
		}
		if w.LossDB < 0 || w.LossDB > 100 {
			ve.add(p(fp+".loss_db"), "loss %v dB out of range [0,100]", w.LossDB)
		}
	}

	if c := s.Conn; c != nil {
		if c.Interval != 0 && (c.Interval < 6 || c.Interval > 3200) {
			ve.add(p("conn.interval"), "hop interval %d out of range [6,3200] (1.25 ms units)", c.Interval)
		}
		if c.Latency < 0 || c.Latency > 499 {
			ve.add(p("conn.latency"), "slave latency %d out of range [0,499]", c.Latency)
		}
		if c.Hop != 0 && (c.Hop < 5 || c.Hop > 16) {
			ve.add(p("conn.hop"), "hop increment %d out of range [5,16]", c.Hop)
		}
		if c.UnusedChannels < 0 || c.UnusedChannels > 34 {
			ve.add(p("conn.unused_channels"), "%d unused channels out of range [0,34] (at least 3 data channels must remain)", c.UnusedChannels)
		}
	}

	if t := s.Traffic; t != nil {
		if t.ActivityMS < 0 || t.ActivityMS > 60000 {
			ve.add(p("traffic.activity_ms"), "activity interval %d ms out of range [0,60000]", t.ActivityMS)
		}
	}

	if a := s.Attacker; a != nil {
		if !goals[a.Goal] {
			ve.add(p("attacker.goal"), "unknown goal %q (want inject, none, hijack-slave, hijack-master, mitm or update)", a.Goal)
		}
		if !payloads[a.Payload] {
			ve.add(p("attacker.payload"), "unknown payload %q (want terminate, toggle, power-off, color or feature)", a.Payload)
		} else {
			victim := victimType(*s)
			if bulbPayloads[a.Payload] && victim != "lightbulb" {
				ve.add(p("attacker.payload"), "payload %q needs a lightbulb victim, not a %s (use \"feature\" or \"terminate\")", a.Payload, victim)
			}
			if a.Goal == "none" && a.Payload != "" {
				ve.add(p("attacker.payload"), "the \"none\" goal takes no payload")
			}
		}
		if a.Update != nil && *a.Update != (Update{}) {
			switch a.Goal {
			case "hijack-master", "mitm", "update":
			default:
				ve.add(p("attacker.update"), "goal %q takes no connection update (only hijack-master, mitm and update do)", a.Goal)
			}
		}
		if a.DelayMS < 0 || a.DelayMS > 600000 {
			ve.add(p("attacker.delay_ms"), "launch delay %d ms out of range [0,600000]", a.DelayMS)
		}
		if a.MaxAttempts < 0 || a.MaxAttempts > 10000 {
			ve.add(p("attacker.max_attempts"), "attempt cap %d out of range [0,10000]", a.MaxAttempts)
		}
		if a.AssumedSlavePPM < 0 || a.AssumedSlavePPM > 10000 {
			ve.add(p("attacker.assumed_slave_ppm"), "assumed accuracy %v ppm out of range [0,10000]", a.AssumedSlavePPM)
		}
		if a.MaxLeadUS < 0 || a.MaxLeadUS > 1e6 {
			ve.add(p("attacker.max_lead_us"), "lead cap %v µs out of range [0,1e6]", a.MaxLeadUS)
		}
		if u := a.Update; u != nil {
			if u.WinSize < 0 || u.WinSize > 8 {
				ve.add(p("attacker.update.win_size"), "window size %d out of range [0,8]", u.WinSize)
			}
			if u.WinOffset < 0 || u.WinOffset > 3200 {
				ve.add(p("attacker.update.win_offset"), "window offset %d out of range [0,3200]", u.WinOffset)
			}
			if u.Interval != 0 && (u.Interval < 6 || u.Interval > 3200) {
				ve.add(p("attacker.update.interval"), "interval %d out of range [6,3200]", u.Interval)
			}
			if u.InstantLead < 0 || u.InstantLead > 1000 {
				ve.add(p("attacker.update.instant_lead"), "instant lead %d events out of range [0,1000]", u.InstantLead)
			}
		}
	}

	if d := s.Defense; d != nil {
		if d.WideningScale < 0 || d.WideningScale > 100 {
			ve.add(p("defense.widening_scale"), "widening scale %v out of range [0,100]", d.WideningScale)
		}
	}

	if r := s.Run; r != nil {
		if r.SimSeconds < 0 || r.SimSeconds > lim.MaxSimSeconds {
			ve.add(p("run.sim_seconds"), "per-trial budget %v s out of range [0,%v]", r.SimSeconds, lim.MaxSimSeconds)
		}
	}
}

// validateSweepDecl checks the sweep axes structurally: resolvable
// fields, exactly one of values/range, per-axis value counts and label
// arity. Value-level bounds surface during expansion.
func validateSweepDecl(s *Spec, lim Limits, ve *ValidationError) {
	if len(s.Sweep) > lim.MaxAxes {
		ve.add("sweep", "%d axes exceed the limit %d", len(s.Sweep), lim.MaxAxes)
	}
	seen := map[string]int{}
	for i, ax := range s.Sweep {
		fp := fmt.Sprintf("sweep[%d]", i)
		if _, err := resolveAxisField(ax.Field); err != nil {
			ve.add(fp+".field", "%v", err)
		} else if di, ok := deviceIndexOf(ax.Field); ok && di >= len(s.Devices) {
			ve.add(fp+".field", "device index %d out of range (fleet has %d devices)", di, len(s.Devices))
		}
		if prev, dup := seen[ax.Field]; dup {
			ve.add(fp+".field", "duplicate axis %q (also sweep[%d])", ax.Field, prev)
		}
		seen[ax.Field] = i
		hasValues, hasRange := len(ax.Values) > 0, ax.Range != nil
		switch {
		case hasValues && hasRange:
			ve.add(fp, "exactly one of values and range, not both")
		case !hasValues && !hasRange:
			ve.add(fp, "an axis needs values or a range")
		case hasRange:
			r := ax.Range
			if !(r.Step > 0) {
				ve.add(fp+".range.step", "step %v must be positive", r.Step)
			} else if r.To < r.From {
				ve.add(fp+".range", "to %v below from %v", r.To, r.From)
			} else if _, ok := rangeValues(*r); !ok {
				ve.add(fp+".range", "range expands past %d values", maxAxisValues)
			}
		case len(ax.Values) > maxAxisValues:
			ve.add(fp+".values", "%d values exceed the per-axis limit %d", len(ax.Values), maxAxisValues)
		}
		if len(ax.Labels) > 0 {
			n := len(ax.Values)
			if hasRange && !hasValues {
				if vals, ok := rangeValues(*ax.Range); ok {
					n = len(vals)
				}
			}
			if len(ax.Labels) != n {
				ve.add(fp+".labels", "%d labels for %d values", len(ax.Labels), n)
			}
			for j, l := range ax.Labels {
				if l == "" || strings.ContainsAny(l, ",\n") || len(l) > 64 {
					ve.add(fmt.Sprintf("%s.labels[%d]", fp, j), "label %q: want 1–64 characters, no commas or newlines", l)
				}
			}
		}
	}
}
