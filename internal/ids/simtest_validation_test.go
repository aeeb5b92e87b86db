// IDS validation against randomized simtest worlds, in package ids_test
// because internal/simtest imports internal/ids (alert-kind accounting) and
// the reverse import would cycle.
//
// EXPERIMENTS.md (§VIII IDS quality) claims 100 % detection with 0 % false
// positives; these tests hold the monitor to exactly those bounds over
// generated benign and attacked traffic rather than the experiments
// package's two fixed topologies.
package ids_test

import (
	"testing"

	"injectable/internal/simtest"
)

func validationRuns(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 8
	}
	return 25
}

// TestZeroFalsePositivesOnBenignWorlds: randomized benign worlds (varying
// intervals, clock drift, distances, bystander advertisers — but no
// attacker) must never raise an injection-class alert.
func TestZeroFalsePositivesOnBenignWorlds(t *testing.T) {
	runs, connected := validationRuns(t), 0
	for seed := uint64(7000); seed < 7000+uint64(runs); seed++ {
		w := simtest.Generate(seed)
		w.Spec.Attacker.Goal, w.Spec.Attacker.Payload = "none", ""
		w.Spec.Defense.IDS = true
		w.Jammer = false // jamming legitimately alerts; FPR is about injection-class alerts
		r, err := simtest.RunWorld(seed, w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Connected {
			continue
		}
		connected++
		if n := r.InjectionAlerts(); n > 0 {
			t.Errorf("seed %d: %d injection-class alert(s) on benign traffic: %v (%v)",
				seed, n, r.IDSAlerts, r.World)
		}
	}
	if connected < runs/2 {
		t.Fatalf("only %d/%d benign worlds connected — FPR measurement is vacuous", connected, runs)
	}
	t.Logf("FPR 0%% over %d connected benign worlds", connected)
}

// TestFullDetectionOnInjectedWorlds: every randomized world in which the
// attacker's injection actually succeeded must raise at least one
// injection-class alert.
func TestFullDetectionOnInjectedWorlds(t *testing.T) {
	runs, successes := validationRuns(t), 0
	for seed := uint64(8000); seed < 8000+uint64(runs); seed++ {
		w := simtest.Generate(seed)
		w.Spec.Attacker.Goal, w.Spec.Attacker.Payload = "inject", "feature"
		w.Spec.Defense.IDS = true
		r, err := simtest.RunWorld(seed, w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.AttackSuccess {
			continue // a missed attack is the attacker's problem, not the IDS's
		}
		successes++
		if r.InjectionAlerts() == 0 {
			t.Errorf("seed %d: successful injection went undetected (alerts %v, world %v)",
				seed, r.IDSAlerts, r.World)
		}
	}
	if successes < runs/3 {
		t.Fatalf("only %d/%d attacks succeeded — TPR measurement is vacuous", successes, runs)
	}
	t.Logf("TPR 100%% over %d successful injections", successes)
}
