package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/obs"
)

// stubRegistry serves a fast deterministic experiment ("stub") plus a
// gated one ("slow") whose trials block until release is closed; builds
// counts how many times "stub" was expanded (one per execution).
func stubRegistry(builds *atomic.Int64, started chan<- string, release <-chan struct{}) *Registry {
	r := NewRegistry()
	r.Register(Entry{
		Name: "stub",
		Build: func(spec JobSpec) (*campaign.Spec, error) {
			if builds != nil {
				builds.Add(1)
			}
			return &campaign.Spec{
				Name:     "stub",
				SeedBase: spec.SeedBase,
				Points: []campaign.Point{{
					Label:  "p",
					Trials: spec.Trials,
					Seed:   func(i int) uint64 { return spec.SeedBase + uint64(i) },
					Run: func(t campaign.Trial) (any, error) {
						return t.Seed*2 + 1, nil
					},
				}},
			}, nil
		},
	})
	r.Register(Entry{
		Name: "slow",
		Build: func(spec JobSpec) (*campaign.Spec, error) {
			return &campaign.Spec{
				Name:     "slow",
				SeedBase: spec.SeedBase,
				Points: []campaign.Point{{
					Label:  "p",
					Trials: spec.Trials,
					Seed:   func(i int) uint64 { return spec.SeedBase + uint64(i) },
					Run: func(t campaign.Trial) (any, error) {
						if started != nil {
							started <- fmt.Sprintf("seed-%d", t.Seed)
						}
						select {
						case <-release:
							return t.Seed, nil
						case <-t.Ctx.Done():
							return nil, t.Ctx.Err()
						}
					},
				}},
			}, nil
		},
	})
	return r
}

func postRun(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRunDeterministicUnderLoad is the tentpole acceptance test: 64
// concurrent submissions of the same (spec, seed) must all receive
// byte-identical NDJSON, identical to a serial in-process campaign run of
// the same spec, with exactly one execution behind them all.
func TestRunDeterministicUnderLoad(t *testing.T) {
	var builds atomic.Int64
	s := NewServer(Config{
		Registry:     stubRegistry(&builds, nil, nil),
		Hub:          obs.NewHub(),
		TrialWorkers: 4,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	body := `{"experiment":"stub","trials":40,"seed_base":77}`
	streams := make([][]byte, clients)
	disps := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
				return
			}
			streams[i] = data
			disps[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// The serial reference: the same campaign run directly, one worker.
	var ref bytes.Buffer
	spec, err := stubRegistry(nil, nil, nil).Build(JobSpec{Experiment: "stub", Trials: 40, SeedBase: 77})
	if err != nil {
		t.Fatal(err)
	}
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&ref))}}
	if _, err := runner.Run(spec); err != nil {
		t.Fatal(err)
	}

	misses := 0
	for i := 0; i < clients; i++ {
		if streams[i] == nil {
			continue // already reported
		}
		if !bytes.Equal(streams[i], ref.Bytes()) {
			t.Fatalf("client %d stream differs from serial reference:\n%s\n--- vs ---\n%s",
				i, streams[i], ref.Bytes())
		}
		if disps[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d submissions were misses, want exactly 1 (rest join or hit)", misses)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("campaign built %d times for %d identical submissions, want 1", n, clients)
	}

	// A later identical submission replays from the cache, byte-identical.
	resp, data := postRun(t, ts.URL, body)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("post-completion submission X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data, ref.Bytes()) {
		t.Error("cached replay differs from serial reference")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("cache hit re-executed the campaign (builds = %d)", n)
	}
}

// TestServedScenarioMatchesSerialCampaign pins the daemon to the real
// registry: a served scenario job must be byte-identical to a serial
// campaign run of the exact spec the CLI layer would build.
func TestServedScenarioMatchesSerialCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	s := NewServer(Config{Hub: obs.NewHub()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"experiment":"scenarioA","target":"lightbulb","trials":2,"seed_base":7}`
	resp, data := postRun(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}

	spec, err := experiments.ScenarioSpec("scenarioA", "lightbulb",
		experiments.Options{TrialsPerPoint: 2, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&ref))}}
	if _, err := runner.Run(spec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref.Bytes()) {
		t.Fatalf("served stream differs from serial campaign:\n%s\n--- vs ---\n%s",
			data, ref.Bytes())
	}

	resp2, data2 := postRun(t, ts.URL, body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second submission X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data2, data) {
		t.Error("cache replay differs from first run")
	}
}

// TestQueueFullRejects asserts admission control: when the queue is at
// capacity, new submissions get 429 + Retry-After without blocking.
func TestQueueFullRejects(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewServer(Config{
		Registry:   stubRegistry(nil, started, release),
		Hub:        obs.NewHub(),
		QueueCap:   2,
		JobWorkers: 1,
		RetryAfter: 3 * time.Second,
	})
	defer func() {
		close(release)
		s.Close()
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(seed int) (*http.Response, []byte) {
		return postRun(t, ts.URL,
			fmt.Sprintf(`{"experiment":"slow","trials":1,"seed_base":%d}`, seed))
	}
	client := &Client{Base: ts.URL}

	// First job occupies the single executor...
	if _, err := client.Submit(context.Background(),
		JobSpec{Experiment: "slow", Trials: 1, SeedBase: 101}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}
	// ...two more fill the queue...
	for seed := 102; seed <= 103; seed++ {
		if _, err := client.Submit(context.Background(),
			JobSpec{Experiment: "slow", Trials: 1, SeedBase: uint64(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	// ...and the next distinct spec is rejected, immediately.
	t0 := time.Now()
	resp, body := submit(104)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submission: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	if e := time.Since(t0); e > 2*time.Second {
		t.Errorf("rejection took %v; admission must not block", e)
	}
	// An identical spec still joins — dedup bypasses the full queue.
	info, err := client.Submit(context.Background(),
		JobSpec{Experiment: "slow", Trials: 1, SeedBase: 103})
	if err != nil {
		t.Fatalf("join submission rejected: %v", err)
	}
	if info.Status != StatusQueued {
		t.Errorf("joined job status = %s, want queued", info.Status)
	}
}

// TestDrainFinishesAcceptedRejectsNew asserts the SIGTERM drain contract.
func TestDrainFinishesAcceptedRejectsNew(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewServer(Config{
		Registry:   stubRegistry(nil, started, release),
		Hub:        obs.NewHub(),
		JobWorkers: 1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &Client{Base: ts.URL}
	running, err := client.Submit(context.Background(),
		JobSpec{Experiment: "slow", Trials: 1, SeedBase: 201})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	queued, err := client.Submit(context.Background(),
		JobSpec{Experiment: "stub", Trials: 3, SeedBase: 202})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain flips readiness and rejects new work with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := postRun(t, ts.URL, `{"experiment":"stub","trials":1,"seed_base":203}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: HTTP %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during drain missing Retry-After")
	}

	// Unblock the running job; drain must finish both accepted jobs.
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	for _, id := range []string{running.ID, queued.ID} {
		info, err := client.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusDone {
			t.Errorf("job %s after drain: status %s, want done", id, info.Status)
		}
	}
}

// TestStreamEOFImpliesCached pins the retirement order: a job's stream
// reaches EOF only once the job is cached, so a client that has read the
// whole stream and resubmits gets a hit, never a join. The test holds
// s.mu across the job's completion; the stream must stay open until it
// lets go.
func TestStreamEOFImpliesCached(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := NewServer(Config{Registry: stubRegistry(nil, started, release), JobWorkers: 1})
	defer s.Close()

	spec := JobSpec{Experiment: "slow", Trials: 1, SeedBase: 401}
	j, disp, err := s.Submit(spec)
	if err != nil || disp != "miss" {
		t.Fatalf("submit: %s, %v", disp, err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	eof := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, j.buf.reader(context.Background()))
		eof <- err
	}()

	s.mu.Lock()
	close(release)
	select {
	case <-eof:
		s.mu.Unlock()
		t.Fatal("stream reached EOF while the job was not yet retired")
	case <-time.After(200 * time.Millisecond):
	}
	s.mu.Unlock()

	select {
	case err := <-eof:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream never reached EOF")
	}
	if _, disp, err := s.Submit(spec); err != nil || disp != "hit" {
		t.Fatalf("resubmit after EOF: %s, %v; want hit", disp, err)
	}
}

// TestCancelRunningJob asserts cancellation reaches an in-flight trial.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	s := NewServer(Config{
		Registry:   stubRegistry(nil, started, release),
		Hub:        obs.NewHub(),
		JobWorkers: 1,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &Client{Base: ts.URL}
	info, err := client.Submit(context.Background(),
		JobSpec{Experiment: "slow", Trials: 1, SeedBase: 301})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	if _, err := client.Cancel(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := client.Status(context.Background(), info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == StatusCanceled {
			break
		}
		if got.Status == StatusDone || got.Status == StatusFailed {
			t.Fatalf("canceled job reached status %s", got.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A canceled job must never poison the cache: resubmitting the spec
	// is a miss, not a hit.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"slow","trials":1,"seed_base":301}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("resubmission after cancel X-Cache = %q, want miss", got)
	}
}

// TestResultsEndpointStreamsAndSSE covers the async API surface.
func TestResultsEndpointStreamsAndSSE(t *testing.T) {
	s := NewServer(Config{Registry: stubRegistry(nil, nil, nil), Hub: obs.NewHub()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &Client{Base: ts.URL}
	info, err := client.Submit(context.Background(),
		JobSpec{Experiment: "stub", Trials: 5, SeedBase: 500})
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	if err := client.Results(context.Background(), info.ID, &ndjson); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(ndjson.String()), "\n")
	if len(lines) != 7 { // header + 5 results + trailer
		t.Fatalf("stream has %d lines, want 7:\n%s", len(lines), ndjson.String())
	}
	var header struct {
		Kind   string `json:"kind"`
		Trials int    `json:"trials"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Kind != "campaign" || header.Trials != 5 {
		t.Errorf("header = %+v", header)
	}

	// The same stream over SSE: one result event per line plus an end event.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+info.ID+"/results", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(sse), "event: result"); got != 7 {
		t.Errorf("SSE stream has %d result events, want 7", got)
	}
	if !strings.Contains(string(sse), "event: end") {
		t.Error("SSE stream missing end event")
	}

	// Unknown ids 404.
	resp2, err := http.Get(ts.URL + "/v1/jobs/j-9999/results")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job results: HTTP %d, want 404", resp2.StatusCode)
	}
}

// TestHealthMetricsExperiments covers the operational endpoints.
func TestHealthMetricsExperiments(t *testing.T) {
	hub := obs.NewHub()
	s := NewServer(Config{Registry: stubRegistry(nil, nil, nil), Hub: hub})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d, want 200", path, resp.StatusCode)
		}
	}

	// Run one job so the counters move.
	if _, data := postRun(t, ts.URL, `{"experiment":"stub","trials":2,"seed_base":600}`); len(data) == 0 {
		t.Fatal("empty run stream")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"serve.jobs_admitted": false, "serve.jobs_done": false, "serve.cache_misses": false}
	for _, c := range snap.Counters {
		if _, ok := want[c.Name]; ok && c.Value > 0 {
			want[c.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metrics snapshot missing nonzero %s", name)
		}
	}

	// The registry listing names the stub experiments.
	resp2, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	listing, _ := io.ReadAll(resp2.Body)
	for _, name := range []string{"stub", "slow"} {
		if !strings.Contains(string(listing), name) {
			t.Errorf("experiments listing missing %q: %s", name, listing)
		}
	}
}

// TestJobTableBounded: the job table forgets a completed job when the
// cache evicts its stream, and keeps only the newest CacheEntries jobs
// whose streams were never cached, so daemon memory stays bounded however
// many jobs it serves.
func TestJobTableBounded(t *testing.T) {
	const entries = 4
	reg := stubRegistry(nil, nil, nil)
	reg.Register(Entry{
		Name: "broken",
		Build: func(JobSpec) (*campaign.Spec, error) {
			return nil, fmt.Errorf("broken by design")
		},
	})
	s := NewServer(Config{Registry: reg, Hub: obs.NewHub(), CacheEntries: entries, JobWorkers: 2, TrialWorkers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// settle waits for every job to leave the live set (retired into the
	// cache or the uncached list) and returns the table and live sizes.
	settle := func() (jobs, live int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			jobs, live = len(s.jobs), len(s.live)
			s.mu.Unlock()
			if live == 0 || time.Now().After(deadline) {
				return jobs, live
			}
			time.Sleep(time.Millisecond)
		}
	}
	status := func(id string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// serveAll runs n distinct jobs one by one, checking the table never
	// holds more than bound terminal jobs.
	serveAll := func(experiment string, n int, base uint64, bound int) []string {
		t.Helper()
		var ids []string
		for i := 0; i < n; i++ {
			j, disp, err := s.Submit(JobSpec{Experiment: experiment, Trials: 2, SeedBase: base + uint64(i)})
			if err != nil || disp != "miss" {
				t.Fatalf("%s job %d: disposition %q, err %v", experiment, i, disp, err)
			}
			<-j.done
			ids = append(ids, j.id)
			if jobs, live := settle(); jobs > bound+live {
				t.Fatalf("after %s job %d the table holds %d jobs (%d live), want at most %d plus the live ones",
					experiment, i, jobs, live, bound)
			}
		}
		return ids
	}

	done := serveAll("stub", 20, 500, entries)
	if got := status(done[0]); got != http.StatusNotFound {
		t.Errorf("evicted job GET = %d, want 404", got)
	}
	newest := done[len(done)-1]
	if got := status(newest); got != http.StatusOK {
		t.Errorf("cached job GET = %d, want 200", got)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"stub","trials":2,"seed_base":519}`))
	if err != nil {
		t.Fatal(err)
	}
	var info JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Cache") != "hit" || info.ID != newest {
		t.Errorf("cached spec resubmitted: X-Cache %q, job %s; want hit on the original job %s",
			resp.Header.Get("X-Cache"), info.ID, newest)
	}

	// Failed jobs are never cached; only the newest CacheEntries of them
	// stay queryable, beside the cached ones.
	failed := serveAll("broken", 10, 700, 2*entries)
	if jobs, _ := settle(); jobs != 2*entries {
		t.Errorf("table holds %d jobs, want %d cached plus %d failed", jobs, entries, entries)
	}
	if got := status(failed[0]); got != http.StatusNotFound {
		t.Errorf("oldest failed job GET = %d, want 404", got)
	}
	if got := status(failed[len(failed)-1]); got != http.StatusOK {
		t.Errorf("newest failed job GET = %d, want 200", got)
	}
	if got := status(newest); got != http.StatusOK {
		t.Errorf("failed jobs pushed out cached job %s: GET = %d, want 200", newest, got)
	}
}
