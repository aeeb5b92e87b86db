package simtest

import (
	"strings"
	"testing"
)

// goals lists every attacker goal admission accepts.
var goals = []string{"none", "inject", "hijack-slave", "hijack-master", "mitm", "update"}

// TestForkCheckScenarios forks the default world under every attacker goal
// and requires the replayed timeline to match the continued one exactly.
func TestForkCheckScenarios(t *testing.T) {
	for _, goal := range goals {
		t.Run(goal, func(t *testing.T) {
			rep, err := ForkCheck(11, withGoal(defaultWorld(), goal))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match {
				t.Fatalf("fork diverged at snapshot t=%v:\ncontinued: %s\nforked:    %s",
					rep.SnapAt, rep.Continued, rep.Forked)
			}
			if rep.Result.Failed() {
				t.Fatalf("forked timeline broke invariants: %v", rep.Result.Violations)
			}
		})
	}
}

// TestForkCheckHijackMasterSeed35 pins the seed that exposed the adopted
// master connection escaping the snapshot (it was reachable only through
// scheduler closures, so a fork replayed it with a stale channel cursor
// and starved the slave).
func TestForkCheckHijackMasterSeed35(t *testing.T) {
	rep, err := ForkCheck(35, withGoal(defaultWorld(), "hijack-master"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("fork diverged:\ncontinued: %s\nforked:    %s", rep.Continued, rep.Forked)
	}
	if !rep.Result.AttackSuccess {
		t.Fatal("world stopped exercising the master hijack — pick a new pin seed")
	}
}

// TestForkSwarmGeneratedWorlds runs the CI fork swarm's generated worlds
// (jammers, bystanders, IDS, four goals) through the fork-equivalence
// check, each against its pinned fingerprint.
func TestForkSwarmGeneratedWorlds(t *testing.T) {
	worlds := 200
	if testing.Short() {
		worlds = 12
	}
	sum, err := Swarm(SwarmConfig{
		SeedBase: swarmSeedBase, Worlds: worlds, Fork: true,
		OnResult: fingerprintChecker(t, "fork"),
	})
	if err != nil {
		t.Fatal(err)
	}
	reportSwarm(t, sum, worlds)
}

// TestForkEveryGoal runs generated worlds under every admitted goal —
// mitm and update included, which the generator never draws — through the
// fork-equivalence check.
func TestForkEveryGoal(t *testing.T) {
	worlds := 50
	if testing.Short() {
		worlds = 8
	}
	for _, goal := range goals {
		t.Run(goal, func(t *testing.T) {
			sum, err := Swarm(SwarmConfig{
				SeedBase: swarmSeedBase, Worlds: worlds, Fork: true,
				Mutate: func(w *World) { *w = withGoal(*w, goal) },
			})
			if err != nil {
				t.Fatal(err)
			}
			reportSwarm(t, sum, worlds)
		})
	}
}

// reportSwarm fails the test on every world error or failure of a fork
// swarm, and on a swarm whose worlds mostly never connected.
func reportSwarm(t *testing.T, sum SwarmSummary, worlds int) {
	t.Helper()
	for _, e := range sum.Errors {
		t.Errorf("world error: %v", e)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d (%v): first violation: %v\nrepro: go run ./cmd/simtest -seed %d -fork",
			f.Seed, f.World, f.Violations[0], f.Seed)
	}
	if sum.Connected < worlds/2 {
		t.Fatalf("only %d/%d worlds connected", sum.Connected, worlds)
	}
}

// TestRunWorldForkFoldsDivergenceIntoViolations checks the plumbing that
// turns a fingerprint mismatch into a shrinkable violation.
func TestRunWorldForkFoldsDivergenceIntoViolations(t *testing.T) {
	detail := forkDiffDetail("a\nwindows=3\nc", "a\nwindows=9\nc")
	if !strings.Contains(detail, "line 2") ||
		!strings.Contains(detail, "windows=3") || !strings.Contains(detail, "windows=9") {
		t.Fatalf("diff detail does not point at the divergence: %q", detail)
	}
	detail = forkDiffDetail("a\nb", "a\nb\nc")
	if !strings.Contains(detail, "length") {
		t.Fatalf("length-only divergence not reported: %q", detail)
	}
}

// TestShrinkForkReproCarriesFlag: a shrunk fork failure must print a repro
// command that reruns under the fork-equivalence runner.
func TestShrinkForkReproCarriesFlag(t *testing.T) {
	s := ShrinkResult{Seed: 35, Fork: true}
	if cmd := s.ReproCommand(); !strings.Contains(cmd, "-fork") {
		t.Fatalf("fork shrink repro lost the -fork flag: %q", cmd)
	}
	s.Fork = false
	if cmd := s.ReproCommand(); strings.Contains(cmd, "-fork") {
		t.Fatalf("plain shrink repro gained a -fork flag: %q", cmd)
	}
}
