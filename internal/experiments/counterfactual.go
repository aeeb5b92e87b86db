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

// counterfactualSpec is the catalog's build for the counterfactual: the
// points' shared-warmup sweep, each trial running both arms from the
// point's snapshot and returning a CounterfactualOutcome. The study is
// fork-based by construction, so Options.Warmup does not apply here.
func counterfactualSpec(opts Options, name string, pts []SweepPoint) *campaign.Spec {
	opts.Warmup = WarmupShared
	spec := BuildSweep(opts, name, pts)
	for i := range spec.Points {
		spec.Points[i].Run = func(t campaign.Trial) (any, error) {
			if t.WarmErr != nil {
				return CounterfactualOutcome{}, t.WarmErr
			}
			return t.Warm.(*WarmTrial).RunCounterfactual(t.Seed, t.Obs, t.Ctx)
		}
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
	e, pts, err := catalogSweep("counterfactual", &opts)
	if err != nil {
		return nil, err
	}
	spec := counterfactualSpec(opts, e.id, pts)

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

// CounterfactualTable renders the study under its catalog entry's title
// and notes.
func CounterfactualTable(points []CounterfactualPoint) *Table {
	e := sweepEntry("counterfactual")
	t := &Table{
		Title:  e.id + " — " + e.title,
		Header: []string{e.xlabel, "trials", "heuristic-success", "effect", "baseline-effect", "causal", "fail"},
		Notes:  e.notes,
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
