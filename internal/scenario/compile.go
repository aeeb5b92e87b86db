package scenario

import (
	"errors"
	"fmt"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/injectable"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// Documented defaults the compiler and canonicalizer share.
const (
	defaultSeedStride = 1000
	defaultInterval   = 36
	defaultSimSeconds = 120
)

// Compile validates the spec against DefaultLimits and expands it into
// the campaign to run: one experiments.SweepPoint per cross-producted
// sweep point, fed through experiments.BuildSweep — the exact shape the
// in-repo catalog compiles to, so DSL campaigns inherit deterministic
// collation, the snapshot/fork warmup modes (opts.Warmup) and point-range
// slicing (opts.PointStart/PointCount) unchanged.
//
// Per-point seed bases are absolute — job seed base + layout offset +
// i·stride with i the point's index in the full sweep, assigned before
// the range slice — so a shard's trials are bit-identical to the same
// points inside an unsharded run.
func Compile(s Spec, opts experiments.Options) (*campaign.Spec, error) {
	opts = opts.WithDefaults()
	if err := Validate(s, opts.TrialsPerPoint, DefaultLimits); err != nil {
		return nil, err
	}
	name, pts, err := points(s, opts)
	if err != nil {
		return nil, err
	}
	return experiments.BuildSweep(opts, name, pts), nil
}

// Execute compiles the spec and runs it in-process, collating per-point
// series like the catalog's entry points do — the `cmd/experiments
// -spec` path. The result stream honors every Options sink, so its
// NDJSON is byte-identical to a daemon job of the same spec.
func Execute(s Spec, opts experiments.Options) (*experiments.Experiment, error) {
	opts = opts.WithDefaults()
	if err := Validate(s, opts.TrialsPerPoint, DefaultLimits); err != nil {
		return nil, err
	}
	name, pts, err := points(s, opts)
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunSweepPoints(opts, name, pts)
	if err != nil {
		return nil, err
	}
	xlabel := "point"
	if len(s.Sweep) > 0 {
		xlabel = s.Sweep[0].Field
		for _, ax := range s.Sweep[1:] {
			xlabel += "," + ax.Field
		}
	}
	return &experiments.Experiment{
		ID:     name,
		Title:  "declarative scenario " + name,
		XLabel: xlabel,
		Points: res,
	}, nil
}

// points expands the spec into labelled, absolutely-seeded sweep points
// and applies the options' point range.
func points(s Spec, opts experiments.Options) (string, []experiments.SweepPoint, error) {
	variants, err := Expand(s)
	if err != nil {
		return "", nil, err
	}
	offset, stride := uint64(0), uint64(defaultSeedStride)
	if s.Seed != nil {
		offset = s.Seed.Offset
		if s.Seed.Stride != 0 {
			stride = s.Seed.Stride
		}
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	pts := make([]experiments.SweepPoint, len(variants))
	for i, v := range variants {
		cfg, err := TrialConfig(v.Spec)
		if err != nil {
			return "", nil, err
		}
		pts[i] = experiments.SweepPoint{
			Label:    v.Label,
			SeedBase: opts.SeedBase + offset + uint64(i)*stride,
			Cfg:      cfg,
		}
	}
	sliced, err := experiments.SlicePoints(name, pts, opts.PointStart, opts.PointCount)
	if err != nil {
		return "", nil, err
	}
	return name, sliced, nil
}

// TrialConfig lowers one expanded variant onto the experiments trial
// knobs. Zero spec fields land on zero TrialConfig fields, whose defaults
// are exactly the documented spec defaults — which is what makes a DSL
// transcription of a catalog entry run the catalog's worlds, and what
// lets the invariant swarm check the worlds admission admits.
func TrialConfig(s Spec) (experiments.TrialConfig, error) {
	var cfg experiments.TrialConfig
	var central *Device
	var periphs []Device
	for i := range s.Devices {
		if s.Devices[i].Type == "phone" {
			central = &s.Devices[i]
		} else {
			periphs = append(periphs, s.Devices[i])
		}
	}
	if len(s.Devices) > 0 {
		if central == nil || len(periphs) == 0 {
			return cfg, errors.New("scenario: compile of unvalidated spec (missing central or victim)")
		}
		victim := periphs[0]
		cfg.Target = victim.Type
		cfg.TargetName = victim.Name
		cfg.BulbPos = position(victim.Pos)
		cfg.TargetPPM = victim.ClockPPM
		cfg.TargetJitter = usDuration(victim.ClockJitterUS)
		cfg.CentralName = central.Name
		cfg.CentralPos = position(central.Pos)
		cfg.CentralPPM = central.ClockPPM
		cfg.CentralJitter = usDuration(central.ClockJitterUS)
		for _, ex := range periphs[1:] {
			cfg.Extras = append(cfg.Extras, experiments.ExtraPeripheral{
				Kind: ex.Type, Name: ex.Name, Pos: position(ex.Pos),
			})
		}
	}
	for _, w := range s.Walls {
		loss := phy.DBm(w.LossDB)
		if loss == 0 {
			loss = phy.DefaultWallLoss
		}
		cfg.Walls = append(cfg.Walls, phy.Wall{
			A: phy.Position(w.A), B: phy.Position(w.B), Loss: loss,
		})
	}
	if c := s.Conn; c != nil {
		cfg.Interval = uint16(c.Interval)
		cfg.Latency = uint16(c.Latency)
		cfg.Hop = uint8(c.Hop)
		cfg.CSA2 = c.CSA2
		cfg.UnusedChans = c.UnusedChannels
	}
	if t := s.Traffic; t != nil {
		cfg.ActivityMS = t.ActivityMS
	}
	if a := s.Attacker; a != nil {
		cfg.Goal = a.Goal
		p, err := payloadOf(a.Payload)
		if err != nil {
			return cfg, err
		}
		cfg.Payload = p
		cfg.AttackerPos = position(a.Pos)
		cfg.GoalDelay = sim.Duration(a.DelayMS) * sim.Millisecond
		cfg.MaxAttempts = a.MaxAttempts
		cfg.Injector.AssumedSlavePPM = a.AssumedSlavePPM
		cfg.Injector.MaxLead = usDuration(a.MaxLeadUS)
		cfg.Injector.InjectAtWindowCenter = a.WindowCenter
		cfg.Injector.DisableAdaptiveGuard = a.NoAdaptiveGuard
		if u := a.Update; u != nil {
			cfg.Update = injectable.UpdateParams{
				WinSize:     uint8(u.WinSize),
				WinOffset:   uint16(u.WinOffset),
				Interval:    uint16(u.Interval),
				InstantLead: uint16(u.InstantLead),
			}
		}
	}
	if cfg.Payload == 0 && cfg.Target != "" && cfg.Target != "lightbulb" {
		// Non-lightbulb victims default to their own feature trigger; the
		// zero Payload would otherwise mean power-off, a bulb command.
		cfg.Payload = experiments.PayloadFeature
	}
	if d := s.Defense; d != nil {
		cfg.IDS = d.IDS
		cfg.WideningScale = d.WideningScale
	}
	if r := s.Run; r != nil && r.SimSeconds > 0 {
		cfg.SimBudget = sim.Duration(r.SimSeconds * float64(sim.Second))
	}
	return cfg, nil
}

// payloadOf maps a spec payload name onto the experiments enum ("" stays
// zero: the trial layer's default, power-off).
func payloadOf(name string) (experiments.Payload, error) {
	switch name {
	case "":
		return 0, nil
	case "terminate":
		return experiments.PayloadTerminate, nil
	case "toggle":
		return experiments.PayloadToggle, nil
	case "power-off":
		return experiments.PayloadPowerOff, nil
	case "color":
		return experiments.PayloadColor, nil
	case "feature":
		return experiments.PayloadFeature, nil
	}
	return 0, fmt.Errorf("scenario: unknown payload %q", name)
}

func position(p *Pos) phy.Position {
	if p == nil {
		return phy.Position{}
	}
	return phy.Position{X: p.X, Y: p.Y}
}

func usDuration(us float64) sim.Duration {
	return sim.Duration(us * float64(sim.Microsecond))
}
