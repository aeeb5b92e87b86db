package scenario_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// loadExample decodes one committed spec from examples/scenarios/.
func loadExample(t *testing.T, name string) scenario.Spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.DecodeSpec(raw)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// runStreams executes a campaign serially and returns its NDJSON and
// binary streams.
func runStreams(t *testing.T, spec *campaign.Spec) ([]byte, []byte) {
	t.Helper()
	var nd, bin bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{
		campaign.NewBinary(campaign.NewNDJSONWriter(&nd)), campaign.NewBinary(&bin),
	}}
	if _, err := runner.Run(spec); err != nil {
		t.Fatal(err)
	}
	return nd.Bytes(), bin.Bytes()
}

// TestExampleSpecsMatchCatalog is the DSL ground-truth anchor: the
// committed example specs transcribe two catalog studies, and their
// compiled campaigns must produce byte-identical NDJSON and binary
// streams — same worlds, same seeds, same labels, same header.
func TestExampleSpecsMatchCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweep simulations")
	}
	cases := []struct {
		file    string
		catalog string
	}{
		{"exp1.json", "exp1"},
		{"ablation-sca.json", "ablation-sca"},
	}
	opts := experiments.Options{TrialsPerPoint: 2, SeedBase: 1000}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			sp := loadExample(t, tc.file)
			dsl, err := scenario.Compile(sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := experiments.SweepSpec(tc.catalog, opts)
			if err != nil {
				t.Fatal(err)
			}
			dslND, dslBin := runStreams(t, dsl)
			refND, refBin := runStreams(t, ref)
			if !bytes.Equal(dslND, refND) {
				t.Errorf("NDJSON differs from catalog %q:\n%s\n--- vs ---\n%s", tc.catalog, dslND, refND)
			}
			if !bytes.Equal(dslBin, refBin) {
				t.Errorf("binary stream differs from catalog %q", tc.catalog)
			}
		})
	}
}

// TestFleetUpdateSpecCompiles covers the showcase world no catalog entry
// can express: six devices, two walls, mixed CSA, an attacker pushing a
// rogue connection update, IDS on — 2×2 sweep points with mixed labels.
func TestFleetUpdateSpecCompiles(t *testing.T) {
	sp := loadExample(t, "fleet-update.json")
	camp, err := scenario.Compile(sp, experiments.Options{TrialsPerPoint: 1, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Name != "fleet-update" {
		t.Errorf("campaign name %q", camp.Name)
	}
	want := []string{"csa1,30", "csa1,60", "csa2,30", "csa2,60"}
	if len(camp.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(camp.Points), len(want))
	}
	for i, p := range camp.Points {
		if p.Label != want[i] {
			t.Errorf("point %d label %q, want %q", i, p.Label, want[i])
		}
	}
	// Per-point seed bases follow the documented layout: base + i·stride
	// over the full expansion.
	for i, p := range camp.Points {
		if got := p.Seed(0); got != 5+uint64(i)*1000 {
			t.Errorf("point %d seed(0) = %d, want %d", i, got, 5+uint64(i)*1000)
		}
	}
}

// TestFleetUpdateRunsEndToEnd executes one trial of the showcase world —
// the acceptance criterion that a never-before-expressible fleet runs,
// not merely compiles.
func TestFleetUpdateRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full multi-device simulation")
	}
	sp := loadExample(t, "fleet-update.json")
	exp, err := scenario.Execute(sp, experiments.Options{TrialsPerPoint: 1, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "fleet-update" || exp.XLabel != "conn.csa2,conn.interval" {
		t.Errorf("experiment %q xlabel %q", exp.ID, exp.XLabel)
	}
	if len(exp.Points) != 4 {
		t.Fatalf("%d points", len(exp.Points))
	}
	for _, p := range exp.Points {
		if n := p.Series.Stats.N() + p.Series.Failures; n != 1 {
			t.Errorf("point %s collated %d trials, want 1", p.Label, n)
		}
	}
}
