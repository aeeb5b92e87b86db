package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"injectable/internal/obs"
	"injectable/internal/serve"
)

// startObsWorkers boots n worker daemons, each with its own hub, and
// returns base URLs plus the hubs for direct snapshot comparison. With
// spread set, each worker holds its first /v1/run until every worker has
// one: otherwise the worker whose dispatch loop starts first can take
// every shard, and the others' trace lanes stay empty.
func startObsWorkers(t *testing.T, n int, spread bool) ([]string, []*obs.Hub) {
	t.Helper()
	urls := make([]string, n)
	hubs := make([]*obs.Hub, n)
	var firstRuns sync.WaitGroup
	firstRuns.Add(n)
	for i := range urls {
		hubs[i] = obs.NewHub()
		srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2, Hub: hubs[i]})
		h := srv.Handler()
		if spread {
			var first sync.Once
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/run" {
					first.Do(func() {
						firstRuns.Done()
						firstRuns.Wait()
					})
				}
				srv.Handler().ServeHTTP(w, r)
			})
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		t.Cleanup(srv.Close)
		urls[i] = hs.URL
	}
	return urls, hubs
}

// TestFleetSnapshotEqualsWorkerMerge is the aggregator acceptance test:
// after a real 2-worker campaign, the fleet /metrics view must equal
// obs.Snapshot.Merge over the workers' own snapshots — the aggregator
// adds scraping and transport, never arithmetic.
func TestFleetSnapshotEqualsWorkerMerge(t *testing.T) {
	workers, hubs := startObsWorkers(t, 2, false)
	st := NewStatus()
	var merged bytes.Buffer
	if _, err := Run(context.Background(), Config{
		Workers: workers,
		Hub:     obs.NewHub(),
		Status:  st,
	}, plan(t, 0), &merged); err != nil {
		t.Fatal(err)
	}

	agg := NewAggregator(AggregatorConfig{Workers: workers, Status: st})
	agg.ScrapeOnce(context.Background())
	fleet := agg.Fleet()

	want := &obs.Snapshot{}
	want.Merge(hubs[0].Snapshot())
	want.Merge(hubs[1].Snapshot())
	if !reflect.DeepEqual(fleet, want) {
		fj, _ := json.Marshal(fleet)
		wj, _ := json.Marshal(want)
		t.Fatalf("fleet snapshot != merge of worker snapshots\nfleet: %s\nwant:  %s", fj, wj)
	}

	// The fleet view saw every shard exactly once across the two workers.
	var done int64
	for _, c := range fleet.Counters {
		if c.Name == "serve.jobs_done" {
			done = c.Value
		}
	}
	if done != 6 {
		t.Errorf("fleet serve.jobs_done = %d, want 6 (one per shard)", done)
	}
}

// TestFleetStatusSurface drives the aggregator's HTTP handler after a
// real run: /v1/fleet reports finished, full progress, per-shard done
// phases and healthy workers; /metrics?format=prom passes the strict
// parser.
func TestFleetStatusSurface(t *testing.T) {
	workers, _ := startObsWorkers(t, 2, false)
	st := NewStatus()
	hub := obs.NewHub()
	var merged bytes.Buffer
	if _, err := Run(context.Background(), Config{
		Workers: workers,
		Hub:     hub,
		Status:  st,
	}, plan(t, 0), &merged); err != nil {
		t.Fatal(err)
	}

	agg := NewAggregator(AggregatorConfig{Workers: workers, Status: st, Local: hub})
	agg.ScrapeOnce(context.Background())
	ts := httptest.NewServer(agg.Handler())
	defer ts.Close()

	var fs FleetStatus
	getJSON(t, ts.URL+"/v1/fleet", &fs)
	if !fs.Finished || fs.Err != "" {
		t.Errorf("fleet not finished cleanly: %+v", fs)
	}
	if fs.Progress != 1 || fs.ShardsDone != 6 || fs.ShardsTotal != 6 {
		t.Errorf("progress %v done %d/%d, want 1 and 6/6", fs.Progress, fs.ShardsDone, fs.ShardsTotal)
	}
	for _, s := range fs.Shards {
		if s.Phase != ShardDone {
			t.Errorf("shard %d phase %q, want done", s.Index, s.Phase)
		}
		if s.Worker == "" || s.Attempts < 1 {
			t.Errorf("shard %d missing worker/attempts: %+v", s.Index, s)
		}
	}
	if len(fs.Workers) != 2 {
		t.Fatalf("fleet lists %d workers, want 2", len(fs.Workers))
	}
	for _, w := range fs.Workers {
		if w.State != "active" || !w.ScrapeOK {
			t.Errorf("worker %s unhealthy: %+v", w.Base, w)
		}
	}
	if fs.JobE2E.Count != 6 {
		t.Errorf("job e2e quantile count %d, want 6", fs.JobE2E.Count)
	}
	if fs.ShardLatency.Count != 6 {
		t.Errorf("shard latency quantile count %d, want 6", fs.ShardLatency.Count)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := obs.ParsePromText(body); err != nil {
		t.Fatalf("fleet exposition failed strict parse: %v", err)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestFleetPlaneDoesNotChangeBytes: the observability plane (hub, spans,
// status, logging) must not perturb the merged stream — byte-identical
// to a serial single-process run.
func TestFleetPlaneDoesNotChangeBytes(t *testing.T) {
	want := serialStream(t)
	workers, _ := startObsWorkers(t, 2, false)
	var log bytes.Buffer
	var merged bytes.Buffer
	if _, err := Run(context.Background(), Config{
		Workers: workers,
		Hub:     obs.NewHub(),
		Status:  NewStatus(),
		Log:     obs.NewLogger(&log, -4), // debug: every lifecycle event on
	}, plan(t, 0), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatalf("plane-enabled merge differs from serial run\nmerged:\n%s\nserial:\n%s", merged.Bytes(), want)
	}
	if !bytes.Contains(log.Bytes(), []byte("campaign merged")) {
		t.Error("debug log missing the campaign merged event")
	}
}

// TestFleetTraceCrossProcess is the tracing acceptance test: one merged
// Chrome trace holds the same campaign's spans across the coordinator
// lane and both worker lanes, all under the plan's canonical hash.
func TestFleetTraceCrossProcess(t *testing.T) {
	workers, _ := startObsWorkers(t, 2, true)
	hub := obs.NewHub()
	p := plan(t, 0)
	var merged bytes.Buffer
	if _, err := Run(context.Background(), Config{
		Workers: workers,
		Hub:     hub,
	}, p, &merged); err != nil {
		t.Fatal(err)
	}

	agg := NewAggregator(AggregatorConfig{Workers: workers, Local: hub})
	var buf bytes.Buffer
	if err := agg.FleetTrace(context.Background(), &buf, p.Key); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}

	lanes := map[int]string{}
	spansPerPID := map[int]int{}
	names := map[string]bool{}
	for _, e := range out.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "process_name" {
				lanes[e.PID] = e.Args["name"]
			}
			continue
		}
		spansPerPID[e.PID]++
		names[e.Name] = true
		if e.Args["trace"] != p.Key {
			t.Fatalf("event %q carries trace %q, want %q", e.Name, e.Args["trace"], p.Key)
		}
	}
	if len(lanes) != 3 {
		t.Fatalf("trace has %d process lanes, want 3 (coordinator + 2 workers): %v", len(lanes), lanes)
	}
	populated := 0
	for pid := range lanes {
		if spansPerPID[pid] > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d of 3 lanes carry spans: %v (per-pid %v)", populated, lanes, spansPerPID)
	}
	for _, want := range []string{"dispatch", "validate", "merge", "queue", "run"} {
		if !names[want] {
			t.Errorf("merged trace missing %q spans: %v", want, names)
		}
	}
}

// TestAggregatorSurvivesDeadWorker: a scrape failure marks the worker
// unhealthy but keeps its previous snapshot in the fleet view.
func TestAggregatorSurvivesDeadWorker(t *testing.T) {
	workers, hubs := startObsWorkers(t, 1, false)
	hubs[0].Reg().Counter("serve.jobs_done").Inc()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	dead.Close() // connection refused from here on

	agg := NewAggregator(AggregatorConfig{Workers: []string{workers[0], dead.URL}})
	agg.ScrapeOnce(context.Background())
	fs := agg.FleetStatus()
	byBase := map[string]WorkerStatus{}
	for _, w := range fs.Workers {
		byBase[w.Base] = w
	}
	if !byBase[workers[0]].ScrapeOK {
		t.Errorf("healthy worker marked unhealthy: %+v", byBase[workers[0]])
	}
	if w := byBase[dead.URL]; w.ScrapeOK || w.ScrapeErr == "" {
		t.Errorf("dead worker not flagged: %+v", w)
	}
	if got := counterValue(agg.Fleet(), "serve.jobs_done"); got != 1 {
		t.Errorf("fleet lost the healthy worker's counters: jobs_done=%d", got)
	}
}
