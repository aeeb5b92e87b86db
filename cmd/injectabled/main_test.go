package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"injectable/internal/obs"
	"injectable/internal/serve"
)

func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"frobnicate"}, &stdout, &stderr, nil); code == 0 {
		t.Fatal("unknown subcommand exited 0")
	}
	if !strings.Contains(stderr.String(), "frobnicate") {
		t.Errorf("stderr does not name the bad subcommand: %s", stderr.String())
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr, nil); code == 0 {
		t.Fatal("no-args exited 0")
	}
	if !strings.Contains(stderr.String(), "usage") {
		t.Errorf("stderr missing usage: %s", stderr.String())
	}
}

// TestServeSubmitDrain is the end-to-end daemon path: serve, submit the
// same scenario job twice (second must be a byte-identical cache hit),
// then SIGTERM and expect a clean drain.
func TestServeSubmitDrain(t *testing.T) {
	sig := make(chan os.Signal, 2)
	signalCh = func() <-chan os.Signal { return sig }

	ready := make(chan string, 1)
	exited := make(chan int, 1)
	var serveErr strings.Builder
	go func() {
		exited <- run([]string{"serve", "-addr", "127.0.0.1:0", "-trial-workers", "2"},
			&strings.Builder{}, &serveErr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready: %s", serveErr.String())
	}
	base := "http://" + addr

	submit := func(out string) (int, string) {
		var stdout, stderr strings.Builder
		code := run([]string{"submit", "-addr", base,
			"-experiment", "scenarioA", "-target", "lightbulb",
			"-trials", "2", "-seed-base", "7", "-o", out},
			&stdout, &stderr, nil)
		return code, stderr.String()
	}
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	if code, msg := submit(first); code != 0 {
		t.Fatalf("first submit exited %d: %s", code, msg)
	}
	code, msg := submit(second)
	if code != 0 {
		t.Fatalf("second submit exited %d: %s", code, msg)
	}
	if !strings.Contains(msg, "cache: hit") {
		t.Errorf("second submit was not a cache hit: %s", msg)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("cache replay not byte-identical (%d vs %d bytes)", len(a), len(b))
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("serve exited %d after SIGTERM: %s", code, serveErr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("serve did not exit after SIGTERM: %s", serveErr.String())
	}
}

// TestWorkerAliasServes proves `worker` is the serve mode under a fabric
// name: it boots, answers /healthz, and drains on SIGTERM.
func TestWorkerAliasServes(t *testing.T) {
	sig := make(chan os.Signal, 2)
	signalCh = func() <-chan os.Signal { return sig }

	ready := make(chan string, 1)
	exited := make(chan int, 1)
	var serveErr strings.Builder
	go func() {
		exited <- run([]string{"worker", "-addr", "127.0.0.1:0", "-trial-workers", "2"},
			&strings.Builder{}, &serveErr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("worker never became ready: %s", serveErr.String())
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("worker /healthz answered %d", resp.StatusCode)
	}
	sig <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("worker exited %d after SIGTERM: %s", code, serveErr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("worker did not exit after SIGTERM: %s", serveErr.String())
	}
}

// TestCoordinatorStatusSurface drives the coordinator CLI with the full
// observability plane on: fleet status endpoint live during -linger,
// strict-parseable Prometheus exposition, a pprof debug server, and a
// merged cross-process Chrome trace with three process lanes.
func TestCoordinatorStatusSurface(t *testing.T) {
	sig := make(chan os.Signal, 2)
	signalCh = func() <-chan os.Signal { return sig }

	// Each worker holds its first shard until the other has one too:
	// otherwise the worker whose dispatch loop starts first can drain all
	// six shards, and the other worker's trace lane stays empty.
	workers := make([]string, 2)
	var firstShards sync.WaitGroup
	firstShards.Add(len(workers))
	for i := range workers {
		srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2, Hub: obs.NewHub()})
		var first sync.Once
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/run" {
				first.Do(func() {
					firstShards.Done()
					firstShards.Wait()
				})
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		t.Cleanup(srv.Close)
		workers[i] = hs.URL
	}
	dir := t.TempDir()
	merged := filepath.Join(dir, "merged.ndjson")
	trace := filepath.Join(dir, "fleet-trace.json")

	ready := make(chan string, 1)
	exited := make(chan int, 1)
	var stderr strings.Builder
	go func() {
		exited <- run([]string{"coordinator",
			"-workers", strings.Join(workers, ","),
			"-experiment", "exp1", "-trials", "2",
			"-o", merged, "-trace", trace,
			"-status", "127.0.0.1:0", "-linger", "30s",
			"-scrape-interval", "100ms",
			"-log-level", "info", "-pprof", "127.0.0.1:0"},
			&strings.Builder{}, &stderr, ready)
	}()
	var statusAddr string
	select {
	case statusAddr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("status surface never came up: %s", stderr.String())
	}
	if statusAddr == "" {
		t.Fatalf("-status set but no listener address reported: %s", stderr.String())
	}
	base := "http://" + statusAddr

	// Wait for the lingering phase (campaign finished) by polling /v1/fleet.
	var fleet struct {
		Finished   bool    `json:"finished"`
		Err        string  `json:"error"`
		Progress   float64 `json:"progress"`
		ShardsDone int     `json:"shards_done"`
		Workers    []struct {
			State    string `json:"state"`
			ScrapeOK bool   `json:"scrape_ok"`
		} `json:"workers"`
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&fleet)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fleet.Finished || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !fleet.Finished || fleet.Err != "" || fleet.Progress != 1 || fleet.ShardsDone != 6 {
		t.Fatalf("fleet status after run: %+v\nstderr: %s", fleet, stderr.String())
	}
	if len(fleet.Workers) != 2 {
		t.Fatalf("fleet lists %d workers, want 2", len(fleet.Workers))
	}

	// The fleet exposition must pass the strict parser.
	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := obs.ParsePromText(expo); err != nil {
		t.Fatalf("fleet exposition failed strict parse: %v", err)
	}
	if !bytes.Contains(expo, []byte("serve_jobs_done")) {
		t.Error("fleet exposition missing worker-side serve_jobs_done")
	}

	// Signal out of the linger and collect the exit.
	sig <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("coordinator exited %d: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("coordinator did not exit: %s", stderr.String())
	}

	// The merged Chrome trace holds coordinator + 2 worker lanes.
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	spans := map[int]int{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "process_name" {
				lanes[e.PID] = true
			}
			continue
		}
		spans[e.PID]++
	}
	if len(lanes) != 3 {
		t.Fatalf("trace has %d process lanes, want 3: %s", len(lanes), stderr.String())
	}
	populated := 0
	for pid := range lanes {
		if spans[pid] > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d of 3 trace lanes carry spans (per-pid %v)", populated, spans)
	}

	if !strings.Contains(stderr.String(), "pprof on http://") {
		t.Errorf("stderr missing pprof announcement: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "campaign merged") {
		t.Errorf("stderr missing structured campaign merged event: %s", stderr.String())
	}
}

// TestCoordinatorMergeAndResume drives the coordinator CLI against two
// in-process workers: the merged stream must be byte-identical to an
// unsharded submit of the same spec, and a rerun over the same journal
// must resume every shard (dispatched=0 in the summary line).
func TestCoordinatorMergeAndResume(t *testing.T) {
	workers := make([]string, 2)
	for i := range workers {
		srv := serve.NewServer(serve.Config{QueueCap: 32, JobWorkers: 1, TrialWorkers: 2})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(srv.Close)
		workers[i] = hs.URL
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.ndjson")
	merged := filepath.Join(dir, "merged.ndjson")
	journal := filepath.Join(dir, "shards.journal")

	var stdout, stderr strings.Builder
	if code := run([]string{"submit", "-addr", workers[0],
		"-experiment", "exp1", "-trials", "2", "-o", ref}, &stdout, &stderr, nil); code != 0 {
		t.Fatalf("reference submit exited %d: %s", code, stderr.String())
	}

	coord := func(out string) string {
		var stdout, stderr strings.Builder
		code := run([]string{"coordinator",
			"-workers", strings.Join(workers, ","),
			"-journal", journal, "-o", out,
			"-experiment", "exp1", "-trials", "2"}, &stdout, &stderr, nil)
		if code != 0 {
			t.Fatalf("coordinator exited %d: %s", code, stderr.String())
		}
		return stderr.String()
	}

	msg := coord(merged)
	if !strings.Contains(msg, "shards=6 resumed=0 dispatched=6") {
		t.Fatalf("first run summary: %s", msg)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("merged stream (%d bytes) differs from unsharded submit (%d bytes)", len(got), len(want))
	}

	rerun := filepath.Join(dir, "rerun.ndjson")
	msg = coord(rerun)
	if !strings.Contains(msg, "shards=6 resumed=6 dispatched=0 retried=0") {
		t.Fatalf("resumed run summary: %s", msg)
	}
	got2, err := os.ReadFile(rerun)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("resumed stream differs from unsharded submit")
	}
}
