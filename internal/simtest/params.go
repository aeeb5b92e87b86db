// Package simtest is the repository's correctness backstop: a deterministic
// randomized-world generator, a cross-layer invariant engine checking the
// paper's quantitative laws (eqs. 1–7) on every event, and a shrinker that
// reduces a failing world to a minimal parameter diff with a one-line repro.
//
// Every world is derived from a single sim.RNG seed, so a violation report
// is reproducible from its seed alone:
//
//	go run ./cmd/simtest -seed N -shrink
package simtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"injectable/internal/sim"
)

// Params is the generator's parameter vector: everything that varies
// between randomized worlds. The zero-adjacent DefaultParams() value is the
// paper's triangle topology with phone-typical connection parameters; the
// shrinker minimises failing worlds toward it field by field.
type Params struct {
	// Target picks the victim peripheral: lightbulb, keyfob or smartwatch.
	Target string
	// Scenario drives the attacker: none, inject, hijack-slave or
	// hijack-master. "none" worlds have no attacker device at all.
	Scenario string

	// Connection parameters proposed by the phone's CONNECT_REQ.
	Interval    uint16 // × 1.25 ms
	Latency     uint16 // slave latency in events
	Hop         uint8  // CSA#1 hop increment, 5..16
	CSA2        bool   // channel selection algorithm #2
	UnusedChans int    // data channels removed from the channel map

	// Clocks (eq. 4 inputs) and geometry.
	TargetPPM      float64
	PhonePPM       float64
	TargetJitterUS float64
	PhoneJitterUS  float64
	PhoneDist      float64 // metres from the target
	AttackerDist   float64 // metres from the target (opposite side)

	// Traffic and environment.
	ActivityMS int  // phone GATT activity period in ms (0 = none)
	Bystander  bool // an extra advertising peripheral sharing the band
	Jammer     bool // periodic wideband noise bursts on a data channel
	IDS        bool // attach the passive monitor (ids.Monitor)

	// WideningScale is the legitimate §VIII countermeasure: the slave
	// scales its receive-window widening and the checker knows it does
	// (0 = spec behaviour, scale 1).
	WideningScale float64

	// RunSeconds bounds the post-connection simulation time.
	RunSeconds int

	// BreakWidening is a fault-injection knob for self-testing the
	// invariant engine: the target device's widening is silently scaled
	// by this factor WITHOUT telling the checker — exactly the "widening
	// bound tightened below eq. 4/5" regression the engine must catch.
	// 0 = off.
	BreakWidening float64
}

// DefaultParams returns the baseline world: the paper's triangle topology
// (2 m edges), phone-default interval 36, spec widening, no attacker.
func DefaultParams() Params {
	return Params{
		Target:         "lightbulb",
		Scenario:       "none",
		Interval:       36,
		Latency:        0,
		Hop:            7,
		CSA2:           false,
		UnusedChans:    0,
		TargetPPM:      50,
		PhonePPM:       50,
		TargetJitterUS: 1,
		PhoneJitterUS:  1,
		PhoneDist:      2,
		AttackerDist:   2,
		ActivityMS:     500,
		Bystander:      false,
		Jammer:         false,
		IDS:            false,
		WideningScale:  0,
		RunSeconds:     8,
	}
}

// Targets lists the victim devices the generator draws from.
func Targets() []string { return []string{"lightbulb", "keyfob", "smartwatch"} }

// Scenarios lists the attacker behaviours the generator draws from.
func Scenarios() []string { return []string{"none", "inject", "hijack-slave", "hijack-master"} }

// Generate draws a world parameter vector from the seed's dedicated RNG
// stream. Equal seeds yield equal parameters; the stream is independent of
// the world's own simulation randomness (sim.RNG child-stream isolation).
func Generate(seed uint64) Params {
	rng := sim.NewRNG(seed).Child("simtest-gen")
	p := DefaultParams()

	p.Target = Targets()[rng.Intn(len(Targets()))]
	switch r := rng.Float64(); {
	case r < 0.30:
		p.Scenario = "none"
	case r < 0.72:
		p.Scenario = "inject"
	case r < 0.86:
		p.Scenario = "hijack-slave"
	default:
		p.Scenario = "hijack-master"
	}

	p.Interval = uint16(6 + rng.Intn(45)) // 7.5 .. 62.5 ms
	if rng.Bool(0.3) {
		p.Latency = uint16(1 + rng.Intn(4))
	}
	p.Hop = uint8(5 + rng.Intn(12))
	p.CSA2 = rng.Bool(0.25)
	if rng.Bool(0.4) {
		p.UnusedChans = 1 + rng.Intn(8)
	}

	p.TargetPPM = 10 + 140*rng.Float64()
	p.PhonePPM = 10 + 140*rng.Float64()
	p.TargetJitterUS = 0.2 + 2.8*rng.Float64()
	p.PhoneJitterUS = 0.2 + 2.8*rng.Float64()
	p.PhoneDist = 0.5 + 3.5*rng.Float64()
	p.AttackerDist = 0.5 + 5.5*rng.Float64()

	if rng.Bool(0.3) {
		p.ActivityMS = 0
	} else {
		p.ActivityMS = 100 + rng.Intn(900)
	}
	p.Bystander = rng.Bool(0.2)
	p.Jammer = rng.Bool(0.1)
	p.IDS = rng.Bool(0.25)
	if rng.Bool(0.15) {
		// Legitimate countermeasure worlds: the checker is told the scale,
		// so a scaled widening is NOT a violation (too small a scale may
		// break the connection, which is an outcome, not a bug).
		p.WideningScale = 0.5 + 1.5*rng.Float64()
	}
	p.RunSeconds = 6 + rng.Intn(9)
	return p
}

// field describes one Params entry for diffing, shrinking and overriding.
type field struct {
	name  string
	get   func(*Params) string
	set   func(*Params, string) error
	equal func(a, b *Params) bool
}

func fields() []field {
	s := func(get func(*Params) *string) field {
		return field{
			get:   func(p *Params) string { return *get(p) },
			set:   func(p *Params, v string) error { *get(p) = v; return nil },
			equal: func(a, b *Params) bool { return *get(a) == *get(b) },
		}
	}
	f64 := func(get func(*Params) *float64) field {
		return field{
			get: func(p *Params) string { return strconv.FormatFloat(*get(p), 'g', -1, 64) },
			set: func(p *Params, v string) error {
				x, err := strconv.ParseFloat(v, 64)
				*get(p) = x
				return err
			},
			equal: func(a, b *Params) bool { return *get(a) == *get(b) },
		}
	}
	num := func(get func(*Params) *int) field {
		return field{
			get: func(p *Params) string { return strconv.Itoa(*get(p)) },
			set: func(p *Params, v string) error {
				x, err := strconv.Atoi(v)
				*get(p) = x
				return err
			},
			equal: func(a, b *Params) bool { return *get(a) == *get(b) },
		}
	}
	boolean := func(get func(*Params) *bool) field {
		return field{
			get: func(p *Params) string { return strconv.FormatBool(*get(p)) },
			set: func(p *Params, v string) error {
				x, err := strconv.ParseBool(v)
				*get(p) = x
				return err
			},
			equal: func(a, b *Params) bool { return *get(a) == *get(b) },
		}
	}
	named := func(name string, f field) field { f.name = name; return f }

	return []field{
		named("target", s(func(p *Params) *string { return &p.Target })),
		named("scenario", s(func(p *Params) *string { return &p.Scenario })),
		named("interval", field{
			get: func(p *Params) string { return strconv.Itoa(int(p.Interval)) },
			set: func(p *Params, v string) error {
				x, err := strconv.Atoi(v)
				p.Interval = uint16(x)
				return err
			},
			equal: func(a, b *Params) bool { return a.Interval == b.Interval },
		}),
		named("latency", field{
			get: func(p *Params) string { return strconv.Itoa(int(p.Latency)) },
			set: func(p *Params, v string) error {
				x, err := strconv.Atoi(v)
				p.Latency = uint16(x)
				return err
			},
			equal: func(a, b *Params) bool { return a.Latency == b.Latency },
		}),
		named("hop", field{
			get: func(p *Params) string { return strconv.Itoa(int(p.Hop)) },
			set: func(p *Params, v string) error {
				x, err := strconv.Atoi(v)
				p.Hop = uint8(x)
				return err
			},
			equal: func(a, b *Params) bool { return a.Hop == b.Hop },
		}),
		named("csa2", boolean(func(p *Params) *bool { return &p.CSA2 })),
		named("unusedChans", num(func(p *Params) *int { return &p.UnusedChans })),
		named("targetPPM", f64(func(p *Params) *float64 { return &p.TargetPPM })),
		named("phonePPM", f64(func(p *Params) *float64 { return &p.PhonePPM })),
		named("targetJitterUS", f64(func(p *Params) *float64 { return &p.TargetJitterUS })),
		named("phoneJitterUS", f64(func(p *Params) *float64 { return &p.PhoneJitterUS })),
		named("phoneDist", f64(func(p *Params) *float64 { return &p.PhoneDist })),
		named("attackerDist", f64(func(p *Params) *float64 { return &p.AttackerDist })),
		named("activityMS", num(func(p *Params) *int { return &p.ActivityMS })),
		named("bystander", boolean(func(p *Params) *bool { return &p.Bystander })),
		named("jammer", boolean(func(p *Params) *bool { return &p.Jammer })),
		named("ids", boolean(func(p *Params) *bool { return &p.IDS })),
		named("wideningScale", f64(func(p *Params) *float64 { return &p.WideningScale })),
		named("runSeconds", num(func(p *Params) *int { return &p.RunSeconds })),
		named("breakWidening", f64(func(p *Params) *float64 { return &p.BreakWidening })),
	}
}

// Set overrides one field by name ("interval=7" style key and value).
func (p *Params) Set(key, value string) error {
	for _, f := range fields() {
		if f.name == key {
			if err := f.set(p, value); err != nil {
				return fmt.Errorf("simtest: bad value %q for %s: %v", value, key, err)
			}
			return nil
		}
	}
	return fmt.Errorf("simtest: unknown parameter %q (known: %s)", key, strings.Join(FieldNames(), ", "))
}

// FieldNames lists the overridable parameter names in stable order.
func FieldNames() []string {
	var names []string
	for _, f := range fields() {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// Diff returns the fields of p that differ from DefaultParams, rendered as
// "name=value" strings in declaration order.
func (p Params) Diff() []string {
	def := DefaultParams()
	var out []string
	for _, f := range fields() {
		if !f.equal(&p, &def) {
			out = append(out, f.name+"="+f.get(&p))
		}
	}
	return out
}

// String renders the non-default parameters (or "defaults").
func (p Params) String() string {
	d := p.Diff()
	if len(d) == 0 {
		return "defaults"
	}
	return strings.Join(d, " ")
}

// validate rejects parameter vectors the world builder cannot realise.
func (p Params) validate() error {
	switch p.Target {
	case "lightbulb", "keyfob", "smartwatch":
	default:
		return fmt.Errorf("simtest: unknown target %q", p.Target)
	}
	switch p.Scenario {
	case "none", "inject", "hijack-slave", "hijack-master":
	default:
		return fmt.Errorf("simtest: unknown scenario %q", p.Scenario)
	}
	if p.Interval < 6 {
		return fmt.Errorf("simtest: interval %d below spec minimum 6", p.Interval)
	}
	if p.Hop < 5 || p.Hop > 16 {
		return fmt.Errorf("simtest: hop %d outside 5..16", p.Hop)
	}
	if p.UnusedChans < 0 || p.UnusedChans > 35 {
		return fmt.Errorf("simtest: unusedChans %d outside 0..35", p.UnusedChans)
	}
	if p.RunSeconds <= 0 {
		return fmt.Errorf("simtest: runSeconds must be positive")
	}
	return nil
}
