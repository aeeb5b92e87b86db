package scenario_test

import (
	"bytes"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// dslSweepSpec is a small two-axis DSL sweep used by the determinism
// tests: 4 points, short trials, no attacker.
const dslSweepSpec = `{
	"version": 1,
	"name": "det-sweep",
	"run": {"sim_seconds": 20},
	"sweep": [
		{"field": "conn.interval", "values": [30, 60]},
		{"field": "conn.latency", "values": [0, 2]}
	]
}`

func compileDSL(t *testing.T, opts experiments.Options) *campaign.Spec {
	t.Helper()
	sp, err := scenario.DecodeSpec([]byte(dslSweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := scenario.Compile(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func runWorkers(t *testing.T, spec *campaign.Spec, workers int) ([]byte, []byte) {
	t.Helper()
	var nd, bin bytes.Buffer
	runner := campaign.Runner{Workers: workers, Sinks: []campaign.Sink{
		campaign.NewBinary(campaign.NewNDJSONWriter(&nd)), campaign.NewBinary(&bin),
	}}
	if _, err := runner.Run(spec); err != nil {
		t.Fatal(err)
	}
	return nd.Bytes(), bin.Bytes()
}

// TestDSLSweepParallelDeterminism: a compiled DSL sweep produces
// byte-identical NDJSON and binary streams at every worker count — the
// same guarantee the catalog sweeps carry.
func TestDSLSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweep simulations")
	}
	opts := experiments.Options{TrialsPerPoint: 2, SeedBase: 400}
	refND, refBin := runWorkers(t, compileDSL(t, opts), 1)
	for _, workers := range []int{4, 8} {
		nd, bin := runWorkers(t, compileDSL(t, opts), workers)
		if !bytes.Equal(nd, refND) {
			t.Errorf("workers=%d: NDJSON differs from serial", workers)
		}
		if !bytes.Equal(bin, refBin) {
			t.Errorf("workers=%d: binary stream differs from serial", workers)
		}
	}
}

// TestDSLSweepWarmupForkDeterminism: the snapshot-fork warmup path
// ("shared") and its fresh-world differential reference ("shared-fresh")
// produce byte-identical streams for a DSL sweep — compiled scenarios
// inherit the fork machinery for free.
func TestDSLSweepWarmupForkDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweep simulations")
	}
	base := experiments.Options{TrialsPerPoint: 2, SeedBase: 400}
	forked := base
	forked.Warmup = experiments.WarmupShared
	fresh := base
	fresh.Warmup = experiments.WarmupSharedFresh

	forkND, forkBin := runWorkers(t, compileDSL(t, forked), 2)
	freshND, freshBin := runWorkers(t, compileDSL(t, fresh), 2)
	if !bytes.Equal(forkND, freshND) {
		t.Errorf("forked warmup NDJSON differs from fresh-world reference")
	}
	if !bytes.Equal(forkBin, freshBin) {
		t.Errorf("forked warmup binary stream differs from fresh-world reference")
	}
}
