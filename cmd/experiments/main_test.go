package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"injectable/internal/serve"
)

func TestUnknownRunNameListsExperimentsAndFailsNonzero(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-run", "nosuchexperiment"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown -run name exited 0")
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"nosuchexperiment"`) {
		t.Errorf("stderr does not name the bad experiment:\n%s", msg)
	}
	// Every runnable name must be offered to the user, on stderr.
	for _, name := range append([]string{"all", "list"}, experimentOrder...) {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr missing available name %q:\n%s", name, msg)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("error path wrote to stdout: %q", stdout.String())
	}
}

func TestListPrintsEveryRunnerName(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list exited %d: %s", code, stderr.String())
	}
	got := strings.Fields(stdout.String())
	if len(got) != len(experimentOrder) {
		t.Fatalf("list printed %d names, want %d", len(got), len(experimentOrder))
	}
	for i, name := range experimentOrder {
		if got[i] != name {
			t.Errorf("list[%d] = %q, want %q", i, got[i], name)
		}
	}
}

func TestBadFlagFailsNonzero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code == 0 {
		t.Fatal("bad flag exited 0")
	}
}

// TestParallelOutputByteIdentical drives the real CLI path end to end: the
// same -seed must produce the same stdout bytes at -parallel 1 and 8.
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(parallel string) string {
		var stdout, stderr strings.Builder
		code := run([]string{"-run", "exp2", "-trials", "2", "-q", "-parallel", parallel},
			&stdout, &stderr)
		if code != 0 {
			t.Fatalf("-parallel %s exited %d: %s", parallel, code, stderr.String())
		}
		return stdout.String()
	}
	serial, parallel := render("1"), render("8")
	if serial != parallel {
		t.Errorf("-parallel 8 output differs from -parallel 1:\n%s\n--- vs ---\n%s",
			parallel, serial)
	}
}

// TestNDJSONMatchesServedCampaign pins the batch CLI and the daemon to
// one deterministic stream format: -ndjson output for a sweep must be
// byte-identical to the NDJSON a served job of the same spec returns.
func TestNDJSONMatchesServedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp1.ndjson")
	var stdout, stderr strings.Builder
	code := run([]string{"-run", "exp1", "-trials", "1", "-q", "-parallel", "1",
		"-seed", "1000", "-ndjson", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("CLI exited %d: %s", code, stderr.String())
	}
	cli, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s := serve.NewServer(serve.Config{TrialWorkers: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := (&serve.Client{Base: ts.URL}).Run(context.Background(),
		serve.JobSpec{Experiment: "exp1", Trials: 1, SeedBase: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli, res.Body) {
		t.Errorf("CLI -ndjson differs from served campaign:\n%s\n--- vs ---\n%s",
			cli, res.Body)
	}
}

// The run-all manifest pins the stdout of `-run all -trials 3 -q` at two
// seed bases by SHA-256: every table, figure, scenario, baseline,
// countermeasure and IDS study the command prints. The figure, baseline,
// countermeasure, IDS-study and encrypted worlds are covered by no stream
// manifest, so this is their byte-level reference. There is no update
// flag: on a mismatch the test prints the recomputed manifest, which is
// the intended replacement when the drift is deliberate.
const runAllManifest = "testdata/run_all.sha256"

func TestRunAllStdoutManifest(t *testing.T) {
	want, err := os.ReadFile(runAllManifest)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, seed := range []string{"1000", "2024"} {
		argv := []string{"-run", "all", "-trials", "3", "-q", "-seed", seed}
		var stdout, stderr strings.Builder
		if code := run(argv, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d: %s", argv, code, stderr.String())
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(stdout.String())), strings.Join(argv, " "))
	}
	if got.String() != string(want) {
		t.Errorf("stdout differs from %s; recomputed manifest:\n%s", runAllManifest, got.String())
	}
}
