package experiments

import (
	"fmt"
	"slices"
	"sort"

	"injectable/internal/campaign"
)

// This file is the servable-campaign registry: every multi-trial study in
// the package, addressable by name, expressed as a campaign.Spec whose
// trial functions return JSON-marshalable values. The serving daemon
// (internal/serve) builds its job registry from these entry points, so a
// queued daemon job runs the exact campaign — same names, same per-point
// seed bases, same trial functions — as the corresponding CLI sweep, and
// their deterministic NDJSON streams are byte-identical.

// sweepDef binds a servable sweep name to its campaign id and points.
type sweepDef struct {
	id  string
	pts func(Options) []SweepPoint
}

// sweepDefs lists every parameter sweep servable by name.
func sweepDefs() map[string]sweepDef {
	return map[string]sweepDef{
		"exp1":             {"fig9-exp1", exp1Points},
		"exp2":             {"fig9-exp2", exp2Points},
		"exp3":             {"fig9-exp3", exp3Points},
		"exp3wall":         {"fig9-exp3wall", exp3WallPoints},
		"ablation-capture": {"ablation-capture", ablationCapturePoints},
		"ablation-sca":     {"ablation-sca", ablationSCAPoints},
		"ablation-timing":  {"ablation-timing", ablationTimingPoints},
		"ablation-guard":   {"ablation-guard", ablationGuardPoints},
		"heuristic":        {"heuristic-validation", heuristicPoints},
	}
}

// counterfactualName is the one servable study that is not a plain
// RunTrial sweep: its trials return CounterfactualOutcome values and its
// points carry fork warmups, so the registry special-cases it rather than
// forcing it through BuildSweep.
const counterfactualName = "counterfactual"

// SweepNames lists the servable sweeps in sorted order.
func SweepNames() []string {
	defs := sweepDefs()
	names := make([]string, 0, len(defs)+1)
	for name := range defs {
		names = append(names, name)
	}
	names = append(names, counterfactualName)
	sort.Strings(names)
	return names
}

// SweepSpec builds the campaign spec for a named sweep. The spec is
// identical to the one the Experiment* entry points run, so executing it
// with a campaign runner reproduces the CLI's per-trial results exactly.
// When opts carries a point range, only that slice of the sweep's points
// is expanded; the sliced trials are bit-identical to the corresponding
// points of the full sweep because every point's seed base is absolute.
func SweepSpec(name string, opts Options) (*campaign.Spec, error) {
	if name == counterfactualName {
		opts.applyDefaults()
		pts, err := SlicePoints(name, counterfactualPoints(opts), opts.PointStart, opts.PointCount)
		if err != nil {
			return nil, err
		}
		return counterfactualSpec(opts, pts), nil
	}
	def, ok := sweepDefs()[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown sweep %q", name)
	}
	opts.applyDefaults()
	pts, err := SlicePoints(name, def.pts(opts), opts.PointStart, opts.PointCount)
	if err != nil {
		return nil, err
	}
	return BuildSweep(opts, def.id, pts), nil
}

// SlicePoints bounds-checks and applies a point range: [start, start+count)
// with count 0 meaning "through the end". (0, 0) returns pts unchanged.
func SlicePoints[P any](name string, pts []P, start, count int) ([]P, error) {
	if start == 0 && count == 0 {
		return pts, nil
	}
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("experiments: %s: negative point range [%d,+%d)", name, start, count)
	}
	if start >= len(pts) {
		return nil, fmt.Errorf("experiments: %s: point start %d beyond the %d points", name, start, len(pts))
	}
	end := len(pts)
	if count > 0 {
		end = start + count
		if end > len(pts) {
			return nil, fmt.Errorf("experiments: %s: point range [%d,%d) beyond the %d points", name, start, end, len(pts))
		}
	}
	return pts[start:end], nil
}

// scenarioRun is the shape of one attack scenario behind RunScenario.
type scenarioRun func(target string, seed uint64, withIDS bool, inst Instrumentation) (ScenarioOutcome, error)

// scenarioDefs lists every servable attack scenario by name.
var scenarioDefs = map[string]scenarioRun{
	"scenarioA":  scenarioA,
	"scenarioB":  scenarioB,
	"scenarioC":  scenarioC,
	"scenarioD":  scenarioD,
	"keystrokes": scenarioKeystrokes,
}

// ScenarioNames lists the servable scenarios in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioDefs))
	for name := range scenarioDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ScenarioSpec builds a campaign of independent scenario runs against one
// target: trial i runs the scenario at seed SeedBase+i. The keystrokes
// scenario has a fixed topology and takes no target; every other scenario
// requires one of ScenarioTargets.
func ScenarioSpec(name, target string, opts Options) (*campaign.Spec, error) {
	run, ok := scenarioDefs[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	if opts.Warmup != "" {
		// Scenario worlds are built per trial by their run functions; there
		// is no shared warm snapshot to fork.
		return nil, fmt.Errorf("experiments: scenario %q takes no warmup mode", name)
	}
	if name == "keystrokes" {
		if target != "" {
			return nil, fmt.Errorf("experiments: scenario %q takes no target", name)
		}
		target = "keyfob→keyboard"
	} else if !slices.Contains(ScenarioTargets(), target) {
		return nil, fmt.Errorf("experiments: scenario %q: unknown target %q (want one of %v)",
			name, target, ScenarioTargets())
	}
	opts.applyDefaults()
	base := opts.SeedBase
	points, err := SlicePoints(name, []campaign.Point{{
		Label:  target,
		Trials: opts.TrialsPerPoint,
		Seed:   func(i int) uint64 { return base + uint64(i) },
		Run: func(t campaign.Trial) (any, error) {
			return run(target, t.Seed, false, Instrumentation{})
		},
	}}, opts.PointStart, opts.PointCount)
	if err != nil {
		return nil, err
	}
	return &campaign.Spec{
		Name:     name + "/" + target,
		SeedBase: base,
		Points:   points,
	}, nil
}
