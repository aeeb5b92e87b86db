package experiments

import (
	"reflect"
	"strings"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/injectable"
	"injectable/internal/sim"
)

func TestCounterfactualIsServable(t *testing.T) {
	found := false
	for _, name := range SweepNames() {
		if name == "counterfactual" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SweepNames() = %v, missing counterfactual", SweepNames())
	}
	full, err := SweepSpec("counterfactual", Options{TrialsPerPoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(full.Points); n != 4 {
		t.Fatalf("SweepSpec has %d points, want 4 payloads", n)
	}
	spec, err := SweepSpec("counterfactual", Options{TrialsPerPoint: 1, PointStart: 1, PointCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Points) != 2 {
		t.Fatalf("sliced spec has %d points, want 2", len(spec.Points))
	}
	if spec.Points[0].Warmup == nil || spec.Points[0].WarmSeed == 0 {
		t.Fatal("counterfactual points must carry fork warmups")
	}
}

// TestCounterfactualCampaignDeterministic runs a small counterfactual
// campaign at several worker counts: outcomes must match exactly, no trial
// may fail, and the attack-free arm must never show the effect (the worlds
// are idle but for the attacker).
func TestCounterfactualCampaignDeterministic(t *testing.T) {
	pts := []SweepPoint{
		{Label: "power-off", SeedBase: 7000, Cfg: TrialConfig{
			Interval: 36, Payload: PayloadPowerOff, Injector: injectable.InjectorConfig{MaxAttempts: 40}, SimBudget: 20 * sim.Second,
		}},
		{Label: "terminate", SeedBase: 7100, Cfg: TrialConfig{
			Interval: 36, Payload: PayloadTerminate, Injector: injectable.InjectorConfig{MaxAttempts: 40}, SimBudget: 20 * sim.Second,
		}},
	}
	run := func(parallel int) []CounterfactualOutcome {
		opts := Options{TrialsPerPoint: 2, Parallel: parallel}
		var outs []CounterfactualOutcome
		collect := campaign.OnResult(func(r campaign.Result) {
			if r.Err != nil {
				t.Fatalf("parallel=%d: %s[%d]: %v", parallel, r.Point, r.Index, r.Err)
			}
			outs = append(outs, r.Value.(CounterfactualOutcome))
		})
		if _, err := opts.runner(collect).Run(counterfactualSpec(opts, "counterfactual", pts)); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return outs
	}

	ref := run(1)
	if len(ref) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(ref))
	}
	for i, out := range ref {
		if out.BaselineEffect {
			t.Errorf("outcome %d: effect appeared without any attacker traffic", i)
		}
		if out.Causal != (out.Injected.EffectObserved && !out.BaselineEffect) {
			t.Errorf("outcome %d: causal flag inconsistent: %+v", i, out)
		}
	}
	for _, parallel := range []int{4, 8} {
		if got := run(parallel); !reflect.DeepEqual(got, ref) {
			t.Errorf("parallel=%d outcomes diverge:\n%+v\n--- vs ---\n%+v", parallel, got, ref)
		}
	}
}

func TestCounterfactualTableRenders(t *testing.T) {
	table := CounterfactualTable([]CounterfactualPoint{
		{Label: "power-off(14B)", Trials: 2, HeuristicSuccess: 2, EffectObserved: 2, Causal: 2},
	})
	out := table.Render()
	for _, want := range []string{"counterfactual", "power-off(14B)", "causal"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
