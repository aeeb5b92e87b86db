package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"injectable/internal/campaign"
)

// TestParallelSweepByteIdentical is the determinism proof behind the
// -parallel flag: for the same seed, an 8-worker campaign must render the
// exact bytes a serial run renders — trial worlds, collation order and
// stats all independent of worker count and completion order.
func TestParallelSweepByteIdentical(t *testing.T) {
	render := func(parallel int) string {
		exp, err := RunSweep("exp1", Options{TrialsPerPoint: 3, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return exp.Table().Render()
	}
	serial := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != serial {
			t.Errorf("parallel=%d output differs from serial:\n%s\n--- vs ---\n%s",
				workers, got, serial)
		}
	}
}

// TestParallelProgressOrderDeterministic: progress callbacks ride the
// collated stream, so even the stderr progress display is reproducible.
func TestParallelProgressOrderDeterministic(t *testing.T) {
	trace := func(parallel int) []string {
		var mu sync.Mutex
		var seen []string
		_, err := RunSweep("exp2", Options{
			TrialsPerPoint: 2,
			Parallel:       parallel,
			Progress: func(point string, trial int) {
				mu.Lock()
				seen = append(seen, point+"#"+string(rune('0'+trial)))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	serial := trace(1)
	parallel := trace(4)
	if strings.Join(serial, " ") != strings.Join(parallel, " ") {
		t.Errorf("progress order differs:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestSweepPanicIsolation injects a panicking trial into a non-fail-fast
// campaign built from experiment trial configs and checks the run
// completes with the panic recorded in Metrics, no other trial lost.
func TestSweepPanicIsolation(t *testing.T) {
	spec := &campaign.Spec{Name: "panicky-sweep", SeedBase: 1000, Points: []campaign.Point{{
		Label:  "hopInterval=36",
		Trials: 6,
		Seed:   func(i int) uint64 { return 1000 + uint64(i) },
		Run: func(tr campaign.Trial) (any, error) {
			if tr.Index == 2 {
				panic("injected trial crash")
			}
			return RunTrial(TrialConfig{Seed: tr.Seed, Interval: 36})
		},
	}}}
	out, err := (&campaign.Runner{Workers: 3}).Run(spec)
	if err != nil {
		t.Fatalf("campaign died instead of isolating the panic: %v", err)
	}
	if out.Metrics.Trials != 6 || out.Metrics.Failed != 1 || out.Metrics.Panicked != 1 {
		t.Fatalf("metrics = %+v", out.Metrics)
	}
	var pe *campaign.PanicError
	if !errors.As(out.Results[2].Err, &pe) {
		t.Fatalf("trial 2 err = %v", out.Results[2].Err)
	}
	for i, res := range out.Results {
		if i == 2 {
			continue
		}
		if res.Err != nil {
			t.Errorf("healthy trial %d lost: %v", i, res.Err)
		}
		if !res.Value.(TrialResult).Success {
			t.Errorf("trial %d injection failed", i)
		}
	}
}

// TestSweepJSONLStream: Options.JSONL captures one line per trial plus
// campaign/metrics framing, with the trial payload marshalled.
func TestSweepJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	_, err := RunSweep("ablation-timing", Options{TrialsPerPoint: 2, JSONL: &buf})
	if err != nil {
		t.Fatal(err)
	}
	var campaigns, results, metrics int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var probe struct {
			Kind  string `json:"kind"`
			OK    bool   `json:"ok"`
			Value struct {
				Success  bool `json:"Success"`
				Attempts int  `json:"Attempts"`
			} `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		switch probe.Kind {
		case "campaign":
			campaigns++
		case "result":
			results++
			if probe.OK && probe.Value.Attempts == 0 && probe.Value.Success {
				t.Errorf("result line lost its payload: %q", line)
			}
		case "metrics":
			metrics++
		}
	}
	if campaigns != 1 || results != 4 || metrics != 1 {
		t.Fatalf("line counts: %d campaigns, %d results, %d metrics\n%s",
			campaigns, results, metrics, buf.String())
	}
}
