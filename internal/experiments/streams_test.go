package experiments_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/phy"
	"injectable/internal/scenario"
	"injectable/internal/sim"
)

// TestStreamRegistryComplete checks that a warmed world's stream registry
// holds every random stream of the world. RekeyStreams rekeys exactly the
// registry, and the fork path and its shared-fresh twin both rekey that
// way, so the differential tests cannot notice a stream missing from it:
// it would keep its warm-up sequence in every trial of both paths alike.
// The reference is the snapshot engine's own graph walk, sim.VisitRNGs,
// from the world's snapshot roots. The test covers every world the repo
// forks: each catalog sweep point, each example spec's points, and the
// IDS and bystander-extras knobs on their own.
func TestStreamRegistryComplete(t *testing.T) {
	opts := experiments.Options{TrialsPerPoint: 1, Warmup: experiments.WarmupShared}
	var specs []*campaign.Spec
	for _, name := range experiments.SweepNames() {
		spec, err := experiments.SweepSpec(name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs = append(specs, spec)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenario specs found")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.DecodeSpec(raw)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		spec, err := scenario.Compile(s, opts)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs = append(specs, spec)
	}
	extras := []experiments.ExtraPeripheral{{Kind: "keyfob", Pos: phy.Position{X: -1}}}
	specs = append(specs, experiments.BuildSweep(opts, "knobs", []experiments.SweepPoint{
		{Label: "ids", SeedBase: 500, Cfg: experiments.TrialConfig{IDS: true}},
		{Label: "extras", SeedBase: 600, Cfg: experiments.TrialConfig{Extras: extras}},
	}))

	for _, spec := range specs {
		for _, pt := range spec.Points {
			if pt.Warmup == nil {
				t.Fatalf("%s/%s: point has no fork warm-up", spec.Name, pt.Label)
			}
			warm, err := pt.Warmup(campaign.Warmup{
				Campaign: spec.Name, Point: pt.Label, Seed: pt.WarmSeed, Ctx: context.Background(),
			})
			if err != nil {
				t.Fatalf("%s/%s: warm-up: %v", spec.Name, pt.Label, err)
			}
			w := warm.(*experiments.WarmTrial).World()
			registered := map[*sim.RNG]int{}
			for _, g := range w.RNG.Streams() {
				registered[g]++
			}
			sim.VisitRNGs(func(g *sim.RNG) {
				if n := registered[g]; n != 1 {
					t.Errorf("%s/%s: reachable stream (seed %#x) is registered %d times, want 1",
						spec.Name, pt.Label, g.Seed(), n)
				}
			}, w.SnapshotRoots()...)
			t.Logf("%s/%s: %d streams", spec.Name, pt.Label, len(registered))
		}
	}
}
