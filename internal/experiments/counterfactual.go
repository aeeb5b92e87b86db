package experiments

import (
	"fmt"

	"injectable/internal/campaign"
)

// The counterfactual study is the snapshot machinery applied as an
// instrument rather than an optimisation: for every trial, the attack
// timeline and an attack-free baseline are forked from the same warmed
// snapshot with the same trial randomness, so the two timelines are
// identical up to the instant the injection phase begins. An effect that
// appears in the attack arm and not in the baseline is *caused* by the
// injected traffic — ground truth the paper's eq. 7 heuristic can be
// audited against without any statistical argument.

// counterfactualPoints sweeps the four payloads at Hop Interval 75 on the
// paper's triangle, like exp2 but in its own absolute seed block.
func counterfactualPoints(opts Options) []SweepPoint {
	bulb, central, attacker := trianglePositions()
	var pts []SweepPoint
	for i, payload := range []Payload{PayloadTerminate, PayloadToggle, PayloadPowerOff, PayloadColor} {
		pts = append(pts, SweepPoint{
			Label:    payload.String(),
			SeedBase: opts.SeedBase + 90000 + uint64(i)*1000,
			Cfg: TrialConfig{
				Interval:    75,
				Payload:     payload,
				BulbPos:     bulb,
				CentralPos:  central,
				AttackerPos: attacker,
			},
		})
	}
	return pts
}

// counterfactualSpec expands the points into a fork-based campaign whose
// trial functions return CounterfactualOutcome values. The study is
// fork-based by construction (both arms replay one snapshot), so
// Options.Warmup does not apply here.
func counterfactualSpec(opts Options, pts []SweepPoint) *campaign.Spec {
	spec := &campaign.Spec{Name: "counterfactual", SeedBase: opts.SeedBase}
	for _, sp := range pts {
		cfg := sp.Cfg
		base := sp.SeedBase
		trials := sp.Trials
		if trials == 0 {
			trials = opts.TrialsPerPoint
		}
		spec.Points = append(spec.Points, campaign.Point{
			Label:    sp.Label,
			Trials:   trials,
			Seed:     func(i int) uint64 { return base + uint64(i) },
			WarmSeed: WarmTrialSeed(base),
			Warmup:   warmupFor(cfg),
			Run: func(t campaign.Trial) (any, error) {
				if t.WarmErr != nil {
					return CounterfactualOutcome{}, t.WarmErr
				}
				return t.Warm.(*WarmTrial).RunCounterfactual(t.Seed, t.Obs, t.Ctx)
			},
		})
	}
	return spec
}

// CounterfactualPoint aggregates one payload's paired timelines.
type CounterfactualPoint struct {
	Label string
	// Trials collected (failures excluded).
	Trials int
	// HeuristicSuccess counts attack arms the eq. 7 heuristic called
	// successful; EffectObserved counts attack arms whose effect the device
	// model actually showed.
	HeuristicSuccess int
	EffectObserved   int
	// BaselineEffect counts attack-free arms showing the effect anyway —
	// each one is a false attribution the heuristic cannot detect.
	BaselineEffect int
	// Causal counts trials whose effect appeared with the attack and not
	// without it.
	Causal int
	// Failures counts trials that errored.
	Failures int
}

// ExperimentCounterfactual runs the counterfactual study and collates it
// per payload.
func ExperimentCounterfactual(opts Options) ([]CounterfactualPoint, error) {
	opts.applyDefaults()
	pts := counterfactualPoints(opts)
	spec := counterfactualSpec(opts, pts)

	index := make(map[string]int, len(pts))
	for i, sp := range pts {
		index[sp.Label] = i
	}
	points := make([]CounterfactualPoint, len(pts))
	for i, sp := range pts {
		points[i].Label = sp.Label
	}
	collect := campaign.OnResult(func(r campaign.Result) {
		p := &points[index[r.Point]]
		if r.Err != nil {
			p.Failures++
			return
		}
		out := r.Value.(CounterfactualOutcome)
		p.Trials++
		if out.Injected.Success {
			p.HeuristicSuccess++
		}
		if out.Injected.EffectObserved {
			p.EffectObserved++
		}
		if out.BaselineEffect {
			p.BaselineEffect++
		}
		if out.Causal {
			p.Causal++
		}
		opts.progress(r.Point, r.Index)
	})
	if _, err := opts.runner(collect).Run(spec); err != nil {
		return nil, err
	}
	return points, nil
}

// CounterfactualTable renders the study.
func CounterfactualTable(points []CounterfactualPoint) *Table {
	t := &Table{
		Title:  "counterfactual — attacker-on vs attacker-off from one snapshot",
		Header: []string{"payload", "trials", "heuristic-success", "effect", "baseline-effect", "causal", "fail"},
		Notes: []string{
			"both arms fork the same warmed snapshot with the same randomness;",
			"causal = effect observed with the attack and absent without it",
		},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Label,
			fmt.Sprintf("%d", p.Trials),
			fmt.Sprintf("%d", p.HeuristicSuccess),
			fmt.Sprintf("%d", p.EffectObserved),
			fmt.Sprintf("%d", p.BaselineEffect),
			fmt.Sprintf("%d", p.Causal),
			fmt.Sprintf("%d", p.Failures),
		})
	}
	return t
}
