package fabric

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

// refSpec is the campaign every fabric test shards: the Fig. 9 exp1 hop
// interval sweep (6 points) at 2 trials per point — small enough to run
// repeatedly, wide enough to shard 6 ways.
func refSpec() serve.JobSpec {
	return serve.JobSpec{Experiment: "exp1", Trials: 2, SeedBase: 1000}
}

// serialStream renders the reference stream the way a single process
// (cmd/experiments -ndjson, or one daemon job) would.
func serialStream(t *testing.T) []byte {
	t.Helper()
	cspec, err := serve.DefaultRegistry().Build(refSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&buf))}}
	if _, err := runner.Run(cspec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorkers boots n in-process worker daemons and returns their base
// URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(srv.Close)
		urls[i] = hs.URL
	}
	return urls
}

// TestPlanShardsCompilesOnce: planning admits the spec and compiles its
// campaign once, whatever its warmup.
func TestPlanShardsCompilesOnce(t *testing.T) {
	var builds atomic.Int64
	reg := serve.NewRegistry()
	reg.Register(serve.Entry{
		Name: "count",
		Build: func(spec serve.JobSpec) (*campaign.Spec, error) {
			builds.Add(1)
			run := func(tr campaign.Trial) (any, error) { return tr.Seed, nil }
			return &campaign.Spec{Name: "count", SeedBase: spec.SeedBase, Points: []campaign.Point{
				{Label: "a", Trials: spec.Trials, Run: run},
				{Label: "b", Trials: spec.Trials, Run: run},
				{Label: "c", Trials: spec.Trials, Run: run},
			}}, nil
		},
	})
	p, err := PlanShards(reg, serve.JobSpec{Experiment: "count", Trials: 4, Warmup: "shared"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 || len(p.Shards) != 3 || p.Trials != 12 {
		t.Fatalf("%d builds, %d shards, %d trials; want 1, 3 and 12", n, len(p.Shards), p.Trials)
	}
}

func plan(t *testing.T, maxShards int) *Plan {
	t.Helper()
	p, err := PlanShards(serve.DefaultRegistry(), refSpec(), maxShards)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanShards pins the planner's arithmetic and key canonicalization.
func TestPlanShards(t *testing.T) {
	p := plan(t, 0)
	if len(p.Shards) != 6 || p.Points != 6 || p.Trials != 12 {
		t.Fatalf("one-per-point plan: %d shards, %d points, %d trials", len(p.Shards), p.Points, p.Trials)
	}
	keys := map[string]bool{}
	covered := 0
	for i, s := range p.Shards {
		if s.Index != i {
			t.Fatalf("shard %d carries index %d", i, s.Index)
		}
		if keys[s.Key] {
			t.Fatalf("duplicate shard key %s", s.Key)
		}
		keys[s.Key] = true
		covered += s.Points
	}
	if covered != p.Points {
		t.Fatalf("shards cover %d points, plan has %d", covered, p.Points)
	}

	p4 := plan(t, 4)
	if len(p4.Shards) != 4 {
		t.Fatalf("maxShards=4 plan has %d shards", len(p4.Shards))
	}
	sizes := []int{p4.Shards[0].Points, p4.Shards[1].Points, p4.Shards[2].Points, p4.Shards[3].Points}
	for _, sz := range sizes {
		if sz != 1 && sz != 2 {
			t.Fatalf("uneven shard sizes %v", sizes)
		}
	}

	// A single shard IS the full campaign: same key, so a worker that
	// served the unsharded spec replays it from cache.
	p1 := plan(t, 1)
	if len(p1.Shards) != 1 || p1.Shards[0].Key != p1.Key {
		t.Fatalf("single-shard plan key %s != campaign key %s", p1.Shards[0].Key, p1.Key)
	}

	if _, err := PlanShards(serve.DefaultRegistry(), serve.JobSpec{Experiment: "exp1", PointStart: 1}, 0); err == nil {
		t.Fatal("planning a spec that already carries a point range succeeded")
	}
}

// TestFabricByteIdentical is the core determinism claim: coordinator + N
// workers produce NDJSON byte-identical to a serial single-process run,
// at worker counts 1, 2 and 4.
func TestFabricByteIdentical(t *testing.T) {
	want := serialStream(t)
	for _, workers := range []int{1, 2, 4} {
		hub := obs.NewHub()
		var merged bytes.Buffer
		rep, err := Run(context.Background(), Config{
			Workers: startWorkers(t, workers),
			Hub:     hub,
		}, plan(t, 0), &merged)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(merged.Bytes(), want) {
			t.Fatalf("workers=%d: merged stream differs from serial run\nmerged:\n%s\nserial:\n%s",
				workers, merged.Bytes(), want)
		}
		if rep.Dispatched != 6 || rep.Resumed != 0 || rep.Trials != 12 {
			t.Fatalf("workers=%d: report %+v", workers, rep)
		}
		if got := hub.Reg().Counter("fabric.shards_dispatched").Value(); got != 6 {
			t.Fatalf("workers=%d: dispatched counter %d, want 6", workers, got)
		}
	}
}

// flakyWorker wraps a healthy worker handler and kills the connection of
// the first `kills` requests — a worker crashing mid-shard from the
// coordinator's point of view. onDrop, when non-nil, runs after each
// killed connection.
func flakyWorker(t *testing.T, kills int, onDrop func()) string {
	t.Helper()
	srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2})
	t.Cleanup(srv.Close)
	var n atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(n.Add(1)) <= kills {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // mid-request connection drop
			if onDrop != nil {
				onDrop()
			}
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// gatedWorker boots a healthy worker daemon whose requests wait until
// gate closes (or the request is abandoned), and returns its base URL.
func gatedWorker(t *testing.T, gate <-chan struct{}) string {
	t.Helper()
	srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestFabricSurvivesWorkerDeath kills one worker's connections mid-shard;
// the coordinator must redispatch to the survivor and still merge a
// byte-identical stream.
func TestFabricSurvivesWorkerDeath(t *testing.T) {
	want := serialStream(t)
	hub := obs.NewHub()
	// The healthy worker holds its requests until the dying one has
	// dropped two connections: otherwise it can drain all six shards
	// before the dying worker fails twice, and no worker is lost.
	var drops atomic.Int64
	twoDropped := make(chan struct{})
	dying := flakyWorker(t, 1000, func() { // never recovers
		if drops.Add(1) == 2 {
			close(twoDropped)
		}
	})
	healthy := gatedWorker(t, twoDropped)
	var merged bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Workers:        []string{dying, healthy},
		Hub:            hub,
		WorkerFailures: 2,
	}, plan(t, 0), &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatal("merged stream with a dying worker differs from serial run")
	}
	if rep.WorkersLost != 1 {
		t.Fatalf("report counts %d lost workers, want 1: %+v", rep.WorkersLost, rep)
	}
	if rep.Retried == 0 {
		t.Fatalf("dying worker produced no redispatches: %+v", rep)
	}
	if got := hub.Reg().Counter("fabric.workers_lost").Value(); got != 1 {
		t.Fatalf("workers_lost counter %d, want 1", got)
	}
}

// TestFabricAllWorkersLost: when every worker is dead the run must fail
// with a resumable journal rather than hang.
func TestFabricAllWorkersLost(t *testing.T) {
	var merged bytes.Buffer
	_, err := Run(context.Background(), Config{
		Workers:        []string{flakyWorker(t, 1000, nil)},
		WorkerFailures: 2,
	}, plan(t, 0), &merged)
	if err == nil {
		t.Fatal("run with only a dead worker succeeded")
	}
}

// TestFabricResume kills the coordinator (via context) mid-campaign, then
// reruns against the same journal: the completed shards must replay from
// the checkpoint — zero dispatches for them, asserted on the obs counters
// — and the final stream must still be byte-identical to the serial run.
func TestFabricResume(t *testing.T) {
	want := serialStream(t)
	workers := startWorkers(t, 2)
	journalPath := filepath.Join(t.TempDir(), "shards.journal")

	// Phase 1: crash the coordinator after the first journaled shard by
	// failing the merged-stream writer on its first payload write. The
	// header write (write #1) succeeds; shards journal before they
	// release, so by the time the writer dies at least one shard is
	// checkpointed and the rest are not yet all merged.
	j1, recs, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatal("fresh journal not empty")
	}
	hub1 := obs.NewHub()
	writes := 0
	_, err = Run(context.Background(), Config{
		Workers: workers,
		Journal: j1,
		Hub:     hub1,
	}, plan(t, 0), writerFunc(func(p []byte) (int, error) {
		writes++
		if writes > 1 {
			return 0, errors.New("coordinator crashed")
		}
		return len(p), nil
	}))
	j1.Close()
	if err == nil {
		t.Fatal("crashed run reported success")
	}

	// Phase 2: resume. Journaled shards replay; only the remainder is
	// dispatched.
	j2, recs, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	done := len(recs)
	if done == 0 {
		t.Fatal("phase 1 journaled no shards")
	}
	hub2 := obs.NewHub()
	var merged bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Workers: workers,
		Journal: j2,
		Resume:  recs,
		Hub:     hub2,
	}, plan(t, 0), &merged)
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatal("resumed stream differs from serial run")
	}
	if rep.Resumed != done {
		t.Fatalf("report resumed %d shards, journal held %d", rep.Resumed, done)
	}
	if got := hub2.Reg().Counter("fabric.shards_resumed").Value(); got != int64(done) {
		t.Fatalf("shards_resumed counter %d, want %d", got, done)
	}
	if got := hub2.Reg().Counter("fabric.shards_dispatched").Value(); got != int64(6-done) {
		t.Fatalf("shards_dispatched counter %d, want %d (journaled shards must not recompute)", got, 6-done)
	}

	// Phase 3: resume again with everything journaled — zero dispatches.
	j3, recs, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(recs) != 6 {
		t.Fatalf("journal holds %d shards after a completed run, want 6", len(recs))
	}
	hub3 := obs.NewHub()
	var replay bytes.Buffer
	rep3, err := Run(context.Background(), Config{
		Workers: []string{"http://127.0.0.1:1"}, // unreachable: resume must not need the fleet
		Journal: j3,
		Resume:  recs,
		Hub:     hub3,
	}, plan(t, 0), &replay)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Bytes(), want) {
		t.Fatal("fully resumed stream differs from serial run")
	}
	if rep3.Dispatched != 0 || rep3.Resumed != 6 {
		t.Fatalf("full resume report %+v, want 0 dispatched / 6 resumed", rep3)
	}
	if got := hub3.Reg().Counter("fabric.shards_dispatched").Value(); got != 0 {
		t.Fatalf("full resume dispatched %d shards", got)
	}
}

// writerFunc adapts a function into an io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFabricScenarioByteIdentical: a declarative scenario sweep shards
// across workers exactly like a catalog sweep — the coordinator plans by
// point range over the compiled expansion, and the merged stream is
// byte-identical to a serial single-process run of the same spec.
func TestFabricScenarioByteIdentical(t *testing.T) {
	raw := []byte(`{
		"version": 1,
		"name": "fabric-dsl",
		"run": {"sim_seconds": 20},
		"sweep": [{"field": "conn.interval", "values": [30, 45, 60]}]
	}`)
	spec, err := serve.ScenarioJobSpec(raw, serve.JobSpec{Trials: 2, SeedBase: 700})
	if err != nil {
		t.Fatal(err)
	}

	cspec, err := serve.DefaultRegistry().Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	runner := campaign.Runner{Workers: 1, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&serial))}}
	if _, err := runner.Run(cspec); err != nil {
		t.Fatal(err)
	}

	p, err := PlanShards(serve.DefaultRegistry(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 3 || p.Points != 3 || p.Trials != 6 {
		t.Fatalf("plan: %d shards, %d points, %d trials", len(p.Shards), p.Points, p.Trials)
	}

	var merged bytes.Buffer
	rep, err := Run(context.Background(), Config{
		Workers: startWorkers(t, 2),
		Hub:     obs.NewHub(),
	}, p, &merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), serial.Bytes()) {
		t.Fatalf("merged scenario stream differs from serial run\nmerged:\n%s\nserial:\n%s",
			merged.Bytes(), serial.Bytes())
	}
	if rep.Dispatched != 3 || rep.Trials != 6 {
		t.Fatalf("report %+v", rep)
	}
}
