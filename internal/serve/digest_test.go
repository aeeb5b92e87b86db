package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
)

// The stream digest manifest pins the binary result stream of every
// servable campaign — each catalog sweep, each scenario × target, the
// fork warmup of two Fig. 9 sweeps and each committed example spec — at
// small trial counts and one fixed seed base, and beside it the stream's
// NDJSON rendering (the "<label> ndjson" lines), whose digests were
// recorded from the standalone NDJSON encoder the renderer replaced.
// Byte identity of these streams is the repository's determinism
// contract, so any change to them must show up as a reviewed diff of the
// manifest file. There is no update flag: on a mismatch the test prints
// the recomputed manifest, which is the intended replacement when the
// drift is deliberate.

const (
	digestManifest = "testdata/stream_digests.sha256"
	digestTrials   = 2
	digestSeedBase = 1000
)

// digestJob is one manifest line's campaign: a label and the job spec
// the daemon would run for it.
type digestJob struct {
	label string
	spec  JobSpec
}

// digestJobs enumerates the manifest's campaigns in manifest order.
func digestJobs(t *testing.T) []digestJob {
	t.Helper()
	base := JobSpec{Trials: digestTrials, SeedBase: digestSeedBase}
	var jobs []digestJob
	add := func(label string, spec JobSpec) { jobs = append(jobs, digestJob{label, spec}) }
	for _, name := range experiments.SweepNames() {
		spec := base
		spec.Experiment = name
		add(name, spec)
	}
	for _, name := range experiments.ScenarioNames() {
		spec := base
		spec.Experiment = name
		if name == "keystrokes" {
			add(name, spec)
			continue
		}
		for _, target := range experiments.ScenarioTargets() {
			spec.Target = target
			add(name+"/"+target, spec)
		}
	}
	for _, name := range []string{"exp1", "exp3"} {
		spec := base
		spec.Experiment = name
		spec.Warmup = experiments.WarmupShared
		add(name+" warmup="+spec.Warmup, spec)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenario specs found")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ScenarioJobSpec(raw, base)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		add("examples/scenarios/"+filepath.Base(p), spec)
	}
	return jobs
}

// TestStreamDigestManifest recomputes every stream digest and compares
// the rendered manifest with the committed one.
func TestStreamDigestManifest(t *testing.T) {
	want, err := os.ReadFile(digestManifest)
	if err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	var got strings.Builder
	for _, job := range digestJobs(t) {
		cspec, err := reg.Build(job.spec)
		if err != nil {
			t.Fatalf("%s: %v", job.label, err)
		}
		var buf bytes.Buffer
		runner := campaign.Runner{Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
		if _, err := runner.Run(cspec); err != nil {
			t.Fatalf("%s: %v", job.label, err)
		}
		var nd bytes.Buffer
		if err := campaign.TranscodeBinaryToNDJSON(&nd, buf.Bytes()); err != nil {
			t.Fatalf("%s: rendering NDJSON: %v", job.label, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(buf.Bytes()), job.label)
		fmt.Fprintf(&got, "%x  %s ndjson\n", sha256.Sum256(nd.Bytes()), job.label)
	}
	if got.String() != string(want) {
		t.Errorf("result streams differ from %s; recomputed manifest:\n%s", digestManifest, got.String())
	}
}
