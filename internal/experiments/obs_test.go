package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"injectable/internal/obs"
)

// TestHistogramQuantileMatchesStats cross-checks the obs histogram's
// bucket-interpolated quantiles against the exact sample quantiles of
// experiments.Stats on identical data. Both use the rank q*(n-1)
// convention. When consecutive samples never gap by more than one
// bucket the estimate lands within one bucket width of the exact
// value; for arbitrary data it must at least fall between the two
// samples bracketing the quantile rank (padded by one bucket width).
func TestHistogramQuantileMatchesStats(t *testing.T) {
	const width = 1.0 // LinearBuckets step below
	quantiles := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}

	build := func(samples []int) (*Stats, obs.HistogramSnapshot) {
		var s Stats
		r := obs.NewRegistry()
		h := r.Histogram("attempts", obs.LinearBuckets(0, width, 40))
		for _, v := range samples {
			s.Add(v)
			h.Observe(float64(v))
		}
		return &s, r.Snapshot().Histograms[0]
	}

	// Dense data: every value 1..20, gaps never exceed a bucket.
	dense := make([]int, 0, 20)
	for v := 1; v <= 20; v++ {
		dense = append(dense, v)
	}
	s, hs := build(dense)
	if hs.Count != int64(len(dense)) {
		t.Fatalf("histogram count = %d, want %d", hs.Count, len(dense))
	}
	for _, q := range quantiles {
		exact, est := s.quantile(q), hs.Quantile(q)
		if math.Abs(est-exact) > width {
			t.Errorf("dense quantile(%v): histogram %v vs exact %v — off by more than one bucket", q, est, exact)
		}
	}
	if hs.Mean() != s.Mean() {
		t.Errorf("histogram mean %v != exact mean %v", hs.Mean(), s.Mean())
	}

	// Sparse tail: bucket resolution can't beat the sample gaps, but the
	// estimate must stay between the rank's bracketing samples.
	sparse := []int{1, 1, 2, 2, 2, 3, 3, 4, 5, 5, 6, 7, 9, 11, 12, 15, 18, 22, 27, 31}
	s, hs = build(sparse)
	sorted := s.sorted()
	for _, q := range quantiles {
		est := hs.Quantile(q)
		rank := q * float64(len(sorted)-1)
		lo := float64(sorted[int(rank)])
		hi := float64(sorted[int(math.Ceil(rank))])
		if est < lo-width || est > hi+width {
			t.Errorf("sparse quantile(%v): histogram %v outside bracketing samples [%v, %v]", q, est, lo, hi)
		}
	}
}

// counterValue extracts one counter from a snapshot (0 when absent).
func counterValue(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestScenarioAForensicsGolden runs the seeded scenario-A attack with a
// hub attached and checks the forensics ledger against the known-good
// outcome for seed 3, plus the cross-layer invariants every run must
// satisfy.
func TestScenarioAForensicsGolden(t *testing.T) {
	hub := obs.NewHub()
	out, err := RunScenario("scenarioA", "lightbulb", 3, false, Instrumentation{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success {
		t.Fatalf("scenario A seed 3 failed: %+v", out)
	}

	// Attempt records (aborts such as connection-lost don't count as
	// attempts in the metrics).
	var recs []obs.InjectionRecord
	for _, r := range hub.Led().Records() {
		if r.Outcome != "connection-lost" {
			recs = append(recs, r)
		}
	}
	if len(recs) != out.Attempts {
		t.Fatalf("ledger has %d attempt records, report says %d", len(recs), out.Attempts)
	}
	if len(recs) != 2 {
		t.Fatalf("seed 3 golden: want 2 attempts, got %d", len(recs))
	}
	if recs[0].Outcome == "success" {
		t.Fatalf("seed 3 golden: first attempt should miss, got %+v", recs[0])
	}
	last := recs[len(recs)-1]
	if last.Outcome != "success" || !last.AnchorAdopted || last.CRCState != obs.CRCStateOK {
		t.Fatalf("seed 3 golden: final attempt = %+v, want clean anchored success", last)
	}
	if !last.WindowSeen || last.TimingMarginUS < 0 || last.TimingMarginUS > last.WindowWidthUS {
		t.Fatalf("successful injection fired outside the observed window: %+v", last)
	}

	// Metrics must agree with the ledger.
	snap := hub.Snapshot()
	attempts := counterValue(snap, "inject.attempts")
	if attempts != int64(len(recs)) {
		t.Fatalf("inject.attempts = %d, ledger has %d records", attempts, len(recs))
	}
	var hitsAndMisses int64
	for _, c := range snap.Counters {
		if c.Name == "inject.hits" || strings.HasPrefix(c.Name, "inject.miss.") {
			hitsAndMisses += c.Value
		}
	}
	if hitsAndMisses != attempts {
		t.Fatalf("hits+misses = %d, attempts = %d", hitsAndMisses, attempts)
	}
	if counterValue(snap, "inject.hits") != 1 {
		t.Fatalf("inject.hits = %d, want 1", counterValue(snap, "inject.hits"))
	}
}

// TestCampaignMetricsDeterministicAcrossWorkers runs the same small
// sweep serially and with four workers and requires the metrics JSONL
// stream to be byte-identical — the property that makes the export
// usable as a regression artifact.
func TestCampaignMetricsDeterministicAcrossWorkers(t *testing.T) {
	bulb, central, attacker := trianglePositions()
	sweep := func(parallel int) []byte {
		var buf bytes.Buffer
		opts := Options{TrialsPerPoint: 2, SeedBase: 4000, Parallel: parallel, Metrics: &buf}
		pts := []SweepPoint{
			{Label: "hi25", SeedBase: 4000, Cfg: TrialConfig{
				Interval: 25, Payload: PayloadPowerOff,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
			}},
			{Label: "hi50", SeedBase: 5000, Cfg: TrialConfig{
				Interval: 50, Payload: PayloadPowerOff,
				BulbPos: bulb, CentralPos: central, AttackerPos: attacker,
			}},
		}
		if _, err := runSweep(opts, "obs-determinism", pts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := sweep(1)
	parallel := sweep(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("metrics stream differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	// The stream must be well-formed JSONL ending in the campaign summary.
	lines := strings.Split(strings.TrimSpace(string(serial)), "\n")
	if len(lines) < 4 { // header + 2 points + summary
		t.Fatalf("metrics stream too short: %d lines", len(lines))
	}
	var last map[string]any
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		last = m
	}
	if last["kind"] != "campaign-summary" {
		t.Fatalf("final line kind = %v, want campaign-summary", last["kind"])
	}
}
