package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/obs"
)

// countingRegistry serves one fast experiment, "count", that counts its
// builds; while hold is open its trials wait for it to close.
func countingRegistry(builds *atomic.Int64, hold <-chan struct{}) *Registry {
	r := NewRegistry()
	r.Register(Entry{
		Name: "count",
		Build: func(spec JobSpec) (*campaign.Spec, error) {
			builds.Add(1)
			return &campaign.Spec{
				Name:     "count",
				SeedBase: spec.SeedBase,
				Points: []campaign.Point{{
					Label:  "p",
					Trials: spec.Trials,
					Seed:   func(i int) uint64 { return spec.SeedBase + uint64(i) },
					Run: func(t campaign.Trial) (any, error) {
						select {
						case <-hold:
						case <-t.Ctx.Done():
							return nil, t.Ctx.Err()
						}
						return t.Seed, nil
					},
				}},
			}, nil
		},
	})
	return r
}

// TestAdmissionCompilesOnlyAMiss: a submission is admitted once, and only
// a miss builds its campaign, exactly once, in-process and over POST
// /v1/run alike. A hit or a join builds nothing, even when its spec
// carries a point range and a warmup, which the admission of a miss
// checks by compiling.
func TestAdmissionCompilesOnlyAMiss(t *testing.T) {
	var builds atomic.Int64
	hold := make(chan struct{})
	s := NewServer(Config{Registry: countingRegistry(&builds, hold), JobWorkers: 1})
	defer s.Close()
	want := func(n int64, what string) {
		t.Helper()
		if got := builds.Load(); got != n {
			t.Fatalf("after %s: %d builds, want %d", what, got, n)
		}
	}

	// A join: the first submission is still running when the second
	// arrives.
	held := JobSpec{Experiment: "count", Trials: 2, SeedBase: 10}
	first, disp, err := s.Submit(held)
	if err != nil || disp != "miss" {
		t.Fatalf("first submission: %s, %v", disp, err)
	}
	want(1, "a miss")
	if j, disp, err := s.Submit(held); err != nil || disp != "join" || j != first {
		t.Fatalf("second submission: %s, %v", disp, err)
	}
	want(1, "a join")
	close(hold)
	<-first.done

	spec := JobSpec{Experiment: "count", Trials: 2, SeedBase: 20, PointCount: 1, Warmup: "shared"}
	j, disp, err := s.Submit(spec)
	if err != nil || disp != "miss" {
		t.Fatalf("ranged submission: %s, %v", disp, err)
	}
	<-j.done
	want(2, "a ranged miss")
	if _, disp, err := s.Submit(spec); err != nil || disp != "hit" {
		t.Fatalf("ranged resubmission: %s, %v", disp, err)
	}
	want(2, "a ranged hit")

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(JobSpec{Experiment: "count", Trials: 3, SeedBase: 30, PointStart: 0, PointCount: 1})
	for i, cache := range []string{"miss", "hit"} {
		resp, data := postRun(t, ts.URL, string(body))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != cache {
			t.Fatalf("POST %d: HTTP %d, X-Cache %q, want %s: %s",
				i, resp.StatusCode, resp.Header.Get("X-Cache"), cache, data)
		}
		want(3, "POST /v1/run "+cache)
	}
}

// TestServedScenarioShardMatchesInProcess: a DSL shard — an inline
// scenario with a point range and warmup "shared", as the fabric sends
// one — streams over POST /v1/run exactly the bytes Registry.Build and an
// in-process Runner produce, and its replay from the cache matches.
func TestServedScenarioShardMatchesInProcess(t *testing.T) {
	raw := json.RawMessage(`{"version":1,"name":"shard","conn":{"interval":36},
		"attacker":{"max_attempts":40},"run":{"sim_seconds":6},
		"sweep":[{"field":"attacker.pos.x","values":[-0.5,-1,-1.5,-2]}]}`)
	spec := JobSpec{Scenario: raw, Trials: 3, SeedBase: 900, PointStart: 1, PointCount: 2, Warmup: "shared"}

	cspec, err := DefaultRegistry().Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	runner := campaign.Runner{Workers: 2, Sinks: []campaign.Sink{campaign.NewBinary(&want)}}
	if _, err := runner.Run(cspec); err != nil {
		t.Fatal(err)
	}

	s := NewServer(Config{Hub: obs.NewHub(), TrialWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(spec)
	for i, cache := range []string{"miss", "hit"} {
		resp, err := http.Post(ts.URL+"/v1/run?format="+FormatBinary, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		_, err = got.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != cache {
			t.Fatalf("POST %d: HTTP %d, X-Cache %q, want %s", i, resp.StatusCode, resp.Header.Get("X-Cache"), cache)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("POST %d (%s): served shard stream (%d B) differs from the in-process run (%d B)",
				i, cache, got.Len(), want.Len())
		}
	}
}
