package simtest

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"injectable/internal/scenario"
)

// swarmSeedBase anchors the CI swarm; the full run covers
// [swarmSeedBase, swarmSeedBase+500).
const swarmSeedBase = 42_000

func swarmWorlds(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 50
	}
	return 500
}

// fingerprintManifest holds the SHA-256 of Fingerprint() for the CI
// swarm's worlds: "run N" lines for RunWorld over seeds 42000–42499 and
// "fork N" lines for RunWorldFork over 42000–42199, so a change to any
// layer that moves one world's timeline shows here. There is no update
// flag: an intended change regenerates the file as a reviewed diff.
const fingerprintManifest = "testdata/swarm_fingerprints.sha256"

// fingerprintChecker returns a check of one result against the manifest
// line "<mode> <seed>"; seeds outside the manifest are not checked.
func fingerprintChecker(t *testing.T, mode string) func(Result) {
	t.Helper()
	f, err := os.Open(fingerprintManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		sum, key, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed manifest line %q", sc.Text())
		}
		want[key] = sum
	}
	return func(r Result) {
		key := fmt.Sprintf("%s %d", mode, r.Seed)
		sum, ok := want[key]
		if !ok {
			return
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Fingerprint()))); got != sum {
			t.Errorf("%s: fingerprint %s, manifest %s\n%s", key, got, sum, r.Fingerprint())
		}
	}
}

// defaultWorld is the swarm's historical baseline world written as a spec:
// the paper's triangle (2 m edges) with the victim named after its type,
// phone-default interval 36 and hop 7, spec widening, and a passive
// attacker.
func defaultWorld() World {
	return World{Spec: scenario.Spec{
		Version: scenario.Version,
		Devices: []scenario.Device{
			{Type: "lightbulb", Name: "lightbulb", ClockPPM: 50, ClockJitterUS: 1},
			{Type: "phone", Name: "phone", Pos: &scenario.Pos{X: 2}, ClockPPM: 50, ClockJitterUS: 1},
		},
		Conn:     &scenario.Conn{Interval: 36, Hop: 7},
		Traffic:  &scenario.Traffic{ActivityMS: 500},
		Attacker: &scenario.Attacker{Goal: "none", Pos: &scenario.Pos{X: -2}},
		Run:      &scenario.Run{SimSeconds: 8},
	}}
}

// withGoal retargets a world's attacker; inject worlds write the victim's
// feature trigger.
func withGoal(w World, goal string) World {
	a := *w.Spec.Attacker
	a.Goal, a.Payload = goal, ""
	if goal == "inject" {
		a.Payload = "feature"
	}
	w.Spec.Attacker = &a
	return w
}

// TestSwarmInvariantsHold is the tentpole: every randomized world must pass
// every cross-layer invariant, and keep its pinned fingerprint.
func TestSwarmInvariantsHold(t *testing.T) {
	worlds := swarmWorlds(t)
	sum, err := Swarm(SwarmConfig{
		SeedBase: swarmSeedBase, Worlds: worlds,
		OnResult: fingerprintChecker(t, "run"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sum.Errors {
		t.Errorf("world error: %v", e)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d (%v): %d violations, first: %v\nrepro: go run ./cmd/simtest -seed %d",
			f.Seed, f.World, len(f.Violations)+f.Truncated, f.Violations[0], f.Seed)
	}
	// The swarm must actually exercise the stack, not vacuously pass.
	if sum.Connected < worlds/2 {
		t.Fatalf("only %d/%d worlds connected — generator ranges are off", sum.Connected, worlds)
	}
	if len(sum.ByGoal) < 3 {
		t.Fatalf("goal coverage too thin: %v", sum.ByGoal)
	}
	t.Logf("%d worlds, %d connected, goals %v", worlds, sum.Connected, sum.ByGoal)
}

// TestSwarmDeterministicAcrossWorkers reruns the same seed range at
// several worker counts and requires byte-identical world fingerprints.
func TestSwarmDeterministicAcrossWorkers(t *testing.T) {
	worlds := 24
	if testing.Short() {
		worlds = 8
	}
	check := fingerprintChecker(t, "run")
	run := func(workers int) []string {
		var fps []string
		_, err := Swarm(SwarmConfig{
			SeedBase: swarmSeedBase,
			Worlds:   worlds,
			Parallel: workers,
			OnResult: func(r Result) {
				check(r)
				fps = append(fps, r.Fingerprint())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(fps) != worlds {
			t.Fatalf("workers=%d delivered %d/%d results", workers, len(fps), worlds)
		}
		return fps
	}
	want := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: world %d diverged from serial run:\nserial: %s\n%d-way: %s",
					workers, i, want[i], workers, got[i])
			}
		}
	}
}

// TestBrokenWideningCaught is the engine's self-test: a slave whose
// widening is silently tightened below eq. 4/5 must be flagged.
func TestBrokenWideningCaught(t *testing.T) {
	w := defaultWorld()
	w.BreakWidening = 0.5
	r, err := RunWorld(7, w)
	if err != nil {
		t.Fatal(err)
	}
	if !hasViolation(r, "widening-eq4") {
		t.Fatalf("tightened widening went undetected, violations: %v", r.Violations)
	}
}

func hasViolation(r Result, invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestBrokenWideningShrinksToMinimalRepro plants the widening fault in a
// messy generated world and requires the shrinker to isolate it to at most
// three non-default entries, with a repro that reproduces the violation.
func TestBrokenWideningShrinksToMinimalRepro(t *testing.T) {
	const seed = 99
	w := withGoal(Generate(seed), "none") // a fully random world, cheap to rerun while shrinking
	w.BreakWidening = 0.5

	s, err := Shrink(seed, w)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Final.Failed() {
		t.Fatal("shrunk world no longer fails")
	}
	entries := s.Minimal.Entries()
	if len(entries) > 3 {
		t.Fatalf("minimal repro has %d entries, want ≤3: %v", len(entries), entries)
	}
	if s.Minimal.BreakWidening != 0.5 {
		t.Fatalf("shrinker dropped the causative knob: %v", entries)
	}
	repro := s.ReproCommand()
	if !strings.Contains(repro, "-seed 99 -spec ") || !strings.Contains(repro, "-break-widening 0.5") {
		t.Fatalf("repro command incomplete: %s", repro)
	}
	// The repro's spec is the canonical encoding; decoding it must rebuild
	// the failing world.
	b, err := scenario.EncodeCanonical(s.Minimal.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(repro, "'"+string(b)+"'") {
		t.Fatalf("repro does not carry the canonical spec %s: %s", b, repro)
	}
	spec, err := scenario.DecodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWorld(seed, World{Spec: spec, BreakWidening: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !hasViolation(r, "widening-eq4") {
		t.Fatalf("repro world does not reproduce the violation: %v", r.Violations)
	}
	t.Logf("shrunk in %d runs to %v: %s", s.Runs, entries, repro)
}

// TestShrinkPassingWorld: shrinking a healthy world returns it unchanged
// and reports the passing run.
func TestShrinkPassingWorld(t *testing.T) {
	w := defaultWorld()
	s, err := Shrink(3, w)
	if err != nil {
		t.Fatal(err)
	}
	if s.Final.Failed() {
		t.Fatalf("default world fails: %v", s.Final.Violations)
	}
	if s.Runs != 1 || !reflect.DeepEqual(s.Minimal, w) {
		t.Fatalf("passing world was mutated: runs=%d world=%v", s.Runs, s.Minimal)
	}
}

// TestGenerateDeterministic: the world is a pure function of the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %v != %v", seed, a, b)
		}
	}
	if Generate(1).String() == Generate(2).String() {
		t.Fatal("distinct seeds generated identical worlds")
	}
}

// TestGeneratedWorldsRoundTrip: every generated world of the CI swarm is
// admitted, and its canonical encoding decodes to the canonical spec — the
// property the -spec repro depends on. The first worlds rerun from their
// decoded specs and must keep their pinned fingerprints.
func TestGeneratedWorldsRoundTrip(t *testing.T) {
	check := fingerprintChecker(t, "run")
	for seed := uint64(swarmSeedBase); seed < swarmSeedBase+500; seed++ {
		w := Generate(seed)
		if err := scenario.Validate(w.Spec, 1, scenario.DefaultLimits); err != nil {
			t.Fatalf("seed %d: generated world not admitted: %v", seed, err)
		}
		b, err := scenario.EncodeCanonical(w.Spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := scenario.DecodeSpec(b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(back, scenario.Canonical(w.Spec)) {
			t.Fatalf("seed %d: %s decodes to %+v", seed, b, back)
		}
		if seed < swarmSeedBase+20 {
			w.Spec = back
			r, err := RunWorld(seed, w)
			if err != nil {
				t.Fatal(err)
			}
			check(r)
		}
	}
}

// TestCSAReferenceAgainstStack cross-checks the naive reference selectors
// against the production csa package on random maps (a meta-test: if these
// ever diverge, the csa-channel invariant is checking the wrong thing).
func TestCSAReferenceAgainstStack(t *testing.T) {
	// Covered from the other side by the swarm (every window compares the
	// live selector with the reference); here just pin a few known values.
	if ch := refCSA1Channel(0, 7, 1<<37-1); ch != 7 {
		t.Fatalf("CSA#1 event 0 hop 7 = %d, want 7", ch)
	}
	if ch := refCSA1Channel(1, 7, 1<<37-1); ch != 14 {
		t.Fatalf("CSA#1 event 1 hop 7 = %d, want 14", ch)
	}
	// permute bit-reverses within each byte, keeping the bytes in place.
	if m := refPermute(0x0102); m != 0x8040 {
		t.Fatalf("permute(0x0102) = %#x, want 0x8040", m)
	}
}
