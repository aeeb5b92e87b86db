package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"injectable/internal/obs"
	"injectable/internal/sim"
)

// shortCfg keeps fork unit tests fast: few attempts, small budget.
func shortCfg() TrialConfig {
	return TrialConfig{Interval: 36, MaxAttempts: 40}
}

// instrumented returns cfg with a hub of its own: the warm world of a
// fork whose trials collect observability.
func instrumented(cfg TrialConfig) TrialConfig {
	cfg.Obs = obs.NewHub()
	return cfg
}

func TestRunForkMatchesWarmFresh(t *testing.T) {
	const base = 5000
	warmSeed := WarmTrialSeed(base)
	wt, err := NewWarmTrial(instrumented(shortCfg()), warmSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		trialSeed := uint64(base + i)

		forkSink := obs.NewHub()
		forked, err := wt.RunFork(trialSeed, forkSink, nil)
		if err != nil {
			t.Fatalf("trial %d: fork: %v", i, err)
		}

		freshCfg := shortCfg()
		freshSink := obs.NewHub()
		freshCfg.Obs = freshSink
		fresh, err := RunTrialWarmFresh(freshCfg, warmSeed, trialSeed)
		if err != nil {
			t.Fatalf("trial %d: warm-fresh: %v", i, err)
		}

		if forked != fresh {
			t.Fatalf("trial %d: fork=%+v fresh=%+v", i, forked, fresh)
		}
		forkObs, _ := json.Marshal(forkSink.Snapshot())
		freshObs, _ := json.Marshal(freshSink.Snapshot())
		if string(forkObs) != string(freshObs) {
			t.Fatalf("trial %d: obs snapshots diverge:\nfork =%s\nfresh=%s", i, forkObs, freshObs)
		}
		if len(forkSink.Led().Records()) == 0 {
			t.Fatalf("trial %d: the fork recorded no forensics", i)
		}
		if !reflect.DeepEqual(forkSink.Led().Records(), freshSink.Led().Records()) {
			t.Fatalf("trial %d: forensics ledgers diverge", i)
		}
	}
}

// TestUninstrumentedForksMatchInstrumented pins what a warm world built
// without a hub leaves out: the recording, and nothing the trial computes.
// For every attacker goal, and for an IDS world, forks of an
// uninstrumented and an instrumented WarmTrial with the same warm seed
// return identical results.
func TestUninstrumentedForksMatchInstrumented(t *testing.T) {
	type tc struct {
		name string
		cfg  TrialConfig
	}
	var cases []tc
	for _, goal := range []string{GoalInject, GoalNone, GoalHijackSlave, GoalHijackMaster, GoalMITM, GoalUpdate} {
		cfg := shortCfg()
		cfg.Goal = goal
		cfg.SimBudget = 4 * sim.Second
		cases = append(cases, tc{goal, cfg})
	}
	ids := shortCfg()
	ids.IDS = true
	ids.SimBudget = 4 * sim.Second
	cases = append(cases, tc{"ids", ids})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const base = 8100
			plain, err := NewWarmTrial(c.cfg, WarmTrialSeed(base))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := NewWarmTrial(instrumented(c.cfg), WarmTrialSeed(base))
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 3; i++ {
				want, wantErr := inst.RunFork(base+i, obs.NewHub(), nil)
				got, gotErr := plain.RunFork(base+i, nil, nil)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("trial %d: uninstrumented %+v (%v), instrumented %+v (%v)", i, got, gotErr, want, wantErr)
				}
			}
			if len(plain.Forensics()) != 0 {
				t.Fatal("an uninstrumented warm world recorded forensics")
			}
		})
	}
}

func TestRunForkRefusesSinkWithoutHub(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	start := wt.tw.W.Now()
	if _, err := wt.RunFork(123, obs.NewHub(), nil); err == nil {
		t.Fatal("RunFork filled no sink and reported no error")
	}
	if now := wt.tw.W.Now(); now != start {
		t.Fatalf("a refused fork simulated %v", now-start)
	}
	// The refusal leaves the warm trial usable.
	if _, err := wt.RunFork(123, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunForkIsReplayable(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	a, err := wt.RunFork(123, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An interleaved different-seed trial must not perturb the replay.
	if _, err := wt.RunFork(456, nil, nil); err != nil {
		t.Fatal(err)
	}
	b, err := wt.RunFork(123, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed forks diverge: %+v vs %+v", a, b)
	}
}

func TestRunCounterfactual(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(300))
	if err != nil {
		t.Fatal(err)
	}
	out, err := wt.RunCounterfactual(301, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.BaselineEffect {
		t.Fatal("bulb changed state with no attacker traffic")
	}
	if out.Injected.EffectObserved && !out.Causal {
		t.Fatal("observed effect not attributed to the injection")
	}
}
