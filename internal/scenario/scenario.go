// Package scenario is the declarative workload surface: a versioned JSON
// spec describing an arbitrary simulated world — device fleet, geometry,
// clocks, connection parameters, traffic, attacker goal and
// countermeasures — plus sweep axes that cross-product any numeric field
// into campaign points. A spec compiles onto the exact campaign shape the
// in-repo catalog uses (experiments.SweepPoint → experiments.BuildSweep),
// so DSL-defined jobs inherit everything the engine offers: deterministic
// byte-identical result streams at any worker count, snapshot/fork
// warmup, point-range sharding across the fabric, and the serving layer's
// dedup/cache semantics.
//
// The package has four faces:
//
//   - DecodeSpec: a strict decoder (unknown fields, trailing data and
//     oversized payloads are errors) that never panics — a pure function
//     fit for fuzzing.
//   - Validate: semantic validation with structured field paths
//     ("devices[2].type: unknown device type") and admission-time
//     resource limits, so an over-budget spec is rejected before any
//     world is built.
//   - Canonical/EncodeCanonical: a canonicalizer mapping equal-meaning
//     specs (field order, default elision, range-vs-list sweeps) onto one
//     byte encoding, which is what the serving layer hashes into its
//     dedup key.
//   - Compile: Spec → campaign.Spec via experiments.BuildSweep, with
//     absolute per-point seed bases so a sliced (sharded) compile is
//     bit-identical to the same points of the full campaign.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Version is the spec schema version this package decodes.
const Version = 1

// maxSpecBytes bounds the payload DecodeSpec will look at; it matches the
// serving layer's request cap, so nothing admissible over the wire is
// rejected here.
const maxSpecBytes = 1 << 16

// Spec is one declarative scenario, version 1. The zero value of every
// field is a documented default, and the canonical encoding elides
// defaults, so minimal specs stay minimal on the wire. Sub-objects are
// pointers: absent and zero-valued mean the same thing everywhere.
type Spec struct {
	// Version must be 1.
	Version int `json:"version"`
	// Name labels the compiled campaign (and its result stream header).
	// "" means "scenario". Allowed characters: letters, digits, ".",
	// "_", "-" and "/".
	Name string `json:"name,omitempty"`
	// Seed lays out per-point seed bases; nil means offset 0, stride 1000
	// (the catalog's historical layout).
	Seed *SeedLayout `json:"seed,omitempty"`
	// Devices is the fleet. Empty means the historical pair: a lightbulb
	// victim at the origin and a phone central at (2, 0). A non-empty
	// fleet must hold exactly one "phone" (the central) and at least one
	// peripheral; the first peripheral is the attack victim, the rest
	// advertise as bystanders.
	Devices []Device `json:"devices,omitempty"`
	// Walls adds path-loss obstacles to the world geometry.
	Walls []Wall `json:"walls,omitempty"`
	// Conn shapes the central's connection request; nil keeps the
	// historical parameters (hop interval 36, CSA#1, full channel map).
	Conn *Conn `json:"conn,omitempty"`
	// Traffic shapes the central's GATT activity; nil means none.
	Traffic *Traffic `json:"traffic,omitempty"`
	// Attacker tunes the attack; nil means the historical single-frame
	// injection with default tooling.
	Attacker *Attacker `json:"attacker,omitempty"`
	// Defense toggles countermeasures; nil means none.
	Defense *Defense `json:"defense,omitempty"`
	// Run bounds the simulation; nil means 120 simulated seconds per
	// trial.
	Run *Run `json:"run,omitempty"`
	// Sweep cross-products numeric field axes into campaign points; empty
	// means one point labelled "all". The first axis varies slowest.
	Sweep []Axis `json:"sweep,omitempty"`
}

// SeedLayout places the per-point seed bases: point i draws trials from
// base = job seed base + Offset + i·Stride, with i the point's absolute
// index in the full (unsliced) sweep — which is what makes sharded runs
// bit-identical to the whole.
type SeedLayout struct {
	// Offset decorrelates this scenario from others sharing a job seed
	// base (the catalog uses 0, 10000, 20000, … per study).
	Offset uint64 `json:"offset,omitempty"`
	// Stride separates consecutive points (0 = 1000, the catalog's
	// layout; trials use base, base+1, … so the stride bounds trials per
	// point).
	Stride uint64 `json:"stride,omitempty"`
}

// Pos is a 2D position in metres.
type Pos struct {
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
}

// Device is one fleet member.
type Device struct {
	// Type is "phone" (the central), "lightbulb", "keyfob" or
	// "smartwatch".
	Type string `json:"type"`
	// Name is the trace name ("" keeps the historical names: "bulb" for
	// the victim, "central" for the phone, "extraN" for bystanders).
	Name string `json:"name,omitempty"`
	// Pos places the device (nil = the type's historical spot: victim at
	// the origin, phone at (2, 0), bystanders at the origin).
	Pos *Pos `json:"pos,omitempty"`
	// ClockPPM / ClockJitterUS override the sleep-clock model (0 = stack
	// default). Jitter is in microseconds.
	ClockPPM      float64 `json:"clock_ppm,omitempty"`
	ClockJitterUS float64 `json:"clock_jitter_us,omitempty"`
}

// Wall is a path-loss obstacle between two points.
type Wall struct {
	A Pos `json:"a"`
	B Pos `json:"b"`
	// LossDB is the penetration loss (0 = the stack's default interior
	// wall, 7 dB).
	LossDB float64 `json:"loss_db,omitempty"`
}

// Conn shapes the central's connection request.
type Conn struct {
	// Interval is the hop interval in 1.25 ms units (0 = 36, the
	// historical default; else 6..3200).
	Interval int `json:"interval,omitempty"`
	// Latency is the slave latency in events (0..499).
	Latency int `json:"latency,omitempty"`
	// Hop is the CSA#1 hop increment (0 = stack default; else 5..16).
	Hop int `json:"hop,omitempty"`
	// CSA2 selects Channel Selection Algorithm #2.
	CSA2 bool `json:"csa2,omitempty"`
	// UnusedChannels marks the lowest N data channels unused in the
	// initial channel map (0..34).
	UnusedChannels int `json:"unused_channels,omitempty"`
}

// Traffic shapes the central's application traffic.
type Traffic struct {
	// ActivityMS spaces periodic GATT writes in milliseconds (0 = none).
	ActivityMS int `json:"activity_ms,omitempty"`
}

// Attacker tunes the attack scenario.
type Attacker struct {
	// Goal is "" or "inject" (single-frame injection, the default),
	// "none" (baseline world, no attack), "hijack-slave",
	// "hijack-master", "mitm" or "update" (forged CONNECTION_UPDATE_IND
	// without takeover).
	Goal string `json:"goal,omitempty"`
	// Payload picks the injected frame for the inject goal: "terminate",
	// "toggle", "power-off", "color" (lightbulb victims only) or
	// "feature" (the victim type's own feature trigger). "" means
	// "power-off" for lightbulb victims and "feature" otherwise.
	Payload string `json:"payload,omitempty"`
	// Pos places the attacker (nil = the historical (1, 1.732) triangle
	// apex).
	Pos *Pos `json:"pos,omitempty"`
	// DelayMS postpones the attack launch this far past the warm phase.
	DelayMS int `json:"delay_ms,omitempty"`
	// MaxAttempts bounds the injection (0 = 200).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// AssumedSlavePPM is the injector's assumed slave clock accuracy
	// (0 = 20).
	AssumedSlavePPM float64 `json:"assumed_slave_ppm,omitempty"`
	// MaxLeadUS caps how far before the predicted anchor the injector
	// fires, in microseconds (0 = the stack default).
	MaxLeadUS float64 `json:"max_lead_us,omitempty"`
	// WindowCenter fires at the widened window's center instead of its
	// start (an ablation knob).
	WindowCenter bool `json:"window_center,omitempty"`
	// NoAdaptiveGuard disables the adaptive inter-frame guard (an
	// ablation knob).
	NoAdaptiveGuard bool `json:"no_adaptive_guard,omitempty"`
	// Update tunes the forged connection update for the hijack-master,
	// mitm and update goals.
	Update *Update `json:"update,omitempty"`
}

// Update is the forged CONNECTION_UPDATE_IND parameter block. Zero fields
// keep the attack tooling's defaults (win size 2, offset interval/2,
// sniffed interval, instant 12 events ahead).
type Update struct {
	WinSize     int `json:"win_size,omitempty"`
	WinOffset   int `json:"win_offset,omitempty"`
	Interval    int `json:"interval,omitempty"`
	InstantLead int `json:"instant_lead,omitempty"`
}

// Defense toggles the countermeasures under study.
type Defense struct {
	// IDS attaches the monitor to the medium; results then carry its
	// alert count.
	IDS bool `json:"ids,omitempty"`
	// WideningScale scales the victim's window-widening countermeasure
	// (0 = the stack default of 1).
	WideningScale float64 `json:"widening_scale,omitempty"`
}

// Run bounds the simulation.
type Run struct {
	// SimSeconds is the per-trial virtual-time budget (0 = 120). It is an
	// upper bound: an inject-goal trial ends once it is decided (see
	// experiments.TrialConfig.SimBudget). The other goals, IDS worlds and
	// injections whose effect never shows run the whole budget.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
}

// Axis sweeps one numeric field over a list or range of values. Exactly
// one of Values and Range must be set.
type Axis struct {
	// Field is the swept field path, e.g. "conn.interval",
	// "attacker.assumed_slave_ppm" or "devices[1].pos.x". Boolean fields
	// ("conn.csa2", "defense.ids") sweep over 0/1.
	Field  string    `json:"field"`
	Values []float64 `json:"values,omitempty"`
	Range  *Range    `json:"range,omitempty"`
	// Labels names the points (len must equal the value count); empty
	// derives labels from the values ("25", "1.5", …).
	Labels []string `json:"labels,omitempty"`
}

// Range is an inclusive arithmetic progression: From, From+Step, … ≤ To.
type Range struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// Limits are the admission-time resource bounds a spec is validated
// against — policy, enforced on the struct alone, before any world or
// campaign is built.
type Limits struct {
	// MaxDevices bounds the fleet size.
	MaxDevices int
	// MaxWalls bounds the wall count.
	MaxWalls int
	// MaxAxes bounds the sweep dimensionality.
	MaxAxes int
	// MaxPoints bounds the cross-producted point count.
	MaxPoints int
	// MaxSimSeconds bounds one trial's virtual-time budget.
	MaxSimSeconds float64
	// MaxTotalSimSeconds bounds the whole job: Σ per-point budget ×
	// trials per point.
	MaxTotalSimSeconds float64
}

// DefaultLimits is the serving layer's admission policy.
var DefaultLimits = Limits{
	MaxDevices:         16,
	MaxWalls:           8,
	MaxAxes:            4,
	MaxPoints:          256,
	MaxSimSeconds:      600,
	MaxTotalSimSeconds: 1_000_000,
}

// DecodeSpec parses a scenario spec strictly: unknown fields, trailing
// garbage and oversized payloads are errors. It performs no semantic
// validation (Validate does) and never panics, so it is a pure function
// fit for fuzzing.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	if len(data) > maxSpecBytes {
		return s, fmt.Errorf("scenario: spec exceeds %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if dec.More() {
		return Spec{}, errors.New("scenario: trailing data after spec")
	}
	return s, nil
}

// clone deep-copies a spec so sweep expansion can mutate variants freely.
// Empty slices come back nil, which the canonicalizer relies on.
func clone(s Spec) Spec {
	c := s
	c.Devices = append([]Device(nil), s.Devices...)
	for i := range c.Devices {
		if c.Devices[i].Pos != nil {
			p := *c.Devices[i].Pos
			c.Devices[i].Pos = &p
		}
	}
	c.Walls = append([]Wall(nil), s.Walls...)
	if s.Seed != nil {
		v := *s.Seed
		c.Seed = &v
	}
	if s.Conn != nil {
		v := *s.Conn
		c.Conn = &v
	}
	if s.Traffic != nil {
		v := *s.Traffic
		c.Traffic = &v
	}
	if s.Attacker != nil {
		v := *s.Attacker
		if v.Pos != nil {
			p := *v.Pos
			v.Pos = &p
		}
		if v.Update != nil {
			u := *v.Update
			v.Update = &u
		}
		c.Attacker = &v
	}
	if s.Defense != nil {
		v := *s.Defense
		c.Defense = &v
	}
	if s.Run != nil {
		v := *s.Run
		c.Run = &v
	}
	c.Sweep = append([]Axis(nil), s.Sweep...)
	for i := range c.Sweep {
		c.Sweep[i].Values = append([]float64(nil), s.Sweep[i].Values...)
		c.Sweep[i].Labels = append([]string(nil), s.Sweep[i].Labels...)
		if s.Sweep[i].Range != nil {
			r := *s.Sweep[i].Range
			c.Sweep[i].Range = &r
		}
	}
	return c
}

// victimType names the attack victim's device type: the first non-phone
// device, or "lightbulb" for the default fleet.
func victimType(s Spec) string {
	for _, d := range s.Devices {
		if d.Type != "phone" {
			return d.Type
		}
	}
	return "lightbulb"
}

// defaultPayload is the payload name "" resolves to for a victim type.
func defaultPayload(victim string) string {
	if victim == "lightbulb" || victim == "" {
		return "power-off"
	}
	return "feature"
}
