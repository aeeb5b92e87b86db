package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"injectable/internal/campaign"
)

func TestDecodeJobSpecValid(t *testing.T) {
	spec, err := DecodeJobSpec([]byte(
		`{"experiment":"scenarioA","target":"keyfob","trials":10,"seed_base":42,"priority":3,"timeout_ms":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{Experiment: "scenarioA", Target: "keyfob", Trials: 10,
		SeedBase: 42, Priority: 3, TimeoutMS: 1000}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("decoded %+v, want %+v", spec, want)
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"experiment":"exp1","bogus":1}`,
		"trailing data":      `{"experiment":"exp1"}{}`,
		"missing experiment": `{"trials":3}`,
		"trials too large":   `{"experiment":"exp1","trials":501}`,
		"negative trials":    `{"experiment":"exp1","trials":-1}`,
		"priority too large": `{"experiment":"exp1","priority":10}`,
		"negative timeout":   `{"experiment":"exp1","timeout_ms":-5}`,
		"not json":           `hello`,
		"empty":              ``,
	}
	for name, body := range cases {
		if _, err := DecodeJobSpec([]byte(body)); err == nil {
			t.Errorf("%s: decoded without error: %s", name, body)
		}
	}
}

func TestDecodeJobSpecSizeCap(t *testing.T) {
	big := `{"experiment":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	if _, err := DecodeJobSpec([]byte(big)); err == nil {
		t.Fatal("oversized spec decoded without error")
	}
}

func TestNormalizeDefaultsAndIdempotence(t *testing.T) {
	n := JobSpec{Experiment: "exp1"}.Normalize()
	if n.Trials != 25 || n.SeedBase != 1000 {
		t.Fatalf("normalize defaults = trials %d, seed %d; want 25, 1000", n.Trials, n.SeedBase)
	}
	if n2 := n.Normalize(); !reflect.DeepEqual(n2, n) {
		t.Fatalf("normalize not idempotent: %+v vs %+v", n2, n)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	base := JobSpec{Experiment: "scenarioA", Target: "lightbulb"}
	// Defaults and explicit defaults hash identically.
	explicit := base
	explicit.Trials, explicit.SeedBase = 25, 1000
	if base.Key() != explicit.Key() {
		t.Error("spec with default trials/seed keys differently from explicit defaults")
	}
	// Scheduling knobs are excluded from the key.
	sched := explicit
	sched.Priority, sched.TimeoutMS = 9, 60000
	if sched.Key() != explicit.Key() {
		t.Error("priority/timeout changed the dedup key")
	}
	// Result-determining fields are included.
	for name, mut := range map[string]JobSpec{
		"experiment": {Experiment: "scenarioB", Target: "lightbulb", Trials: 25, SeedBase: 1000},
		"target":     {Experiment: "scenarioA", Target: "keyfob", Trials: 25, SeedBase: 1000},
		"trials":     {Experiment: "scenarioA", Target: "lightbulb", Trials: 26, SeedBase: 1000},
		"seed":       {Experiment: "scenarioA", Target: "lightbulb", Trials: 25, SeedBase: 1001},
	} {
		if mut.Key() == explicit.Key() {
			t.Errorf("changing %s did not change the dedup key", name)
		}
	}
}

func TestRegistryValidate(t *testing.T) {
	r := DefaultRegistry()
	if _, err := r.Validate(JobSpec{Experiment: "nope"}); err == nil {
		t.Error("unknown experiment validated")
	}
	if _, err := r.Validate(JobSpec{Experiment: "exp1", Target: "lightbulb"}); err == nil {
		t.Error("sweep with a target validated")
	}
	if _, err := r.Validate(JobSpec{Experiment: "scenarioA"}); err == nil {
		t.Error("scenario without target validated")
	}
	if _, err := r.Validate(JobSpec{Experiment: "scenarioA", Target: "toaster"}); err == nil {
		t.Error("scenario with bogus target validated")
	}
	norm, err := r.Validate(JobSpec{Experiment: "scenarioA", Target: "smartwatch"})
	if err != nil {
		t.Fatal(err)
	}
	if norm.Trials != 25 {
		t.Errorf("validate did not normalize: %+v", norm)
	}
	if _, err := r.Validate(JobSpec{Experiment: "keystrokes"}); err != nil {
		t.Errorf("keystrokes (targetless scenario) rejected: %v", err)
	}
}

func TestPointRangeKeyAndValidate(t *testing.T) {
	full := JobSpec{Experiment: "exp1", Trials: 2}
	shard := full
	shard.PointStart, shard.PointCount = 2, 2
	if shard.Key() == full.Key() {
		t.Error("point range did not change the dedup key")
	}
	other := full
	other.PointStart, other.PointCount = 2, 3
	if other.Key() == shard.Key() {
		t.Error("different point ranges share a dedup key")
	}

	r := DefaultRegistry()
	if _, err := r.Validate(shard); err != nil {
		t.Errorf("valid point range rejected: %v", err)
	}
	// exp1 has 6 points; a range past the end must be rejected at admission.
	bad := full
	bad.PointStart = 99
	if _, err := r.Validate(bad); err == nil {
		t.Error("out-of-range point_start validated")
	}
	bad = full
	bad.PointStart, bad.PointCount = 4, 5
	if _, err := r.Validate(bad); err == nil {
		t.Error("overlong point range validated")
	}
}

// TestPointRangeSlicesStream checks a sharded job's result lines are the
// exact byte subrange of the full campaign's stream: same points, same
// seeds, same values — only the header/trailer frame differs. This is the
// property the fabric's cross-node merge is built on.
func TestPointRangeSlicesStream(t *testing.T) {
	r := DefaultRegistry()
	render := func(spec JobSpec) []byte {
		t.Helper()
		cspec, err := r.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		runner := campaign.Runner{Workers: 2, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&buf))}}
		if _, err := runner.Run(cspec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	stripFrame := func(stream []byte) []byte {
		t.Helper()
		head := bytes.IndexByte(stream, '\n')
		tail := bytes.LastIndexByte(stream[:len(stream)-1], '\n')
		if head < 0 || tail < head {
			t.Fatalf("stream too short: %q", stream)
		}
		return stream[head+1 : tail+1]
	}

	full := stripFrame(render(JobSpec{Experiment: "exp1", Trials: 2}))
	var sharded []byte
	for start := 0; start < 6; start += 2 {
		spec := JobSpec{Experiment: "exp1", Trials: 2, PointStart: start, PointCount: 2}
		sharded = append(sharded, stripFrame(render(spec))...)
	}
	if !bytes.Equal(full, sharded) {
		t.Fatalf("concatenated shard payloads differ from the full run:\nfull:\n%s\nsharded:\n%s", full, sharded)
	}
}

func TestWarmupKeyAndValidate(t *testing.T) {
	if _, err := DecodeJobSpec([]byte(`{"experiment":"exp1","warmup":"bogus"}`)); err == nil {
		t.Error("unknown warmup decoded without error")
	}
	spec, err := DecodeJobSpec([]byte(`{"experiment":"exp1","warmup":"shared"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Warmup != "shared" {
		t.Fatalf("decoded warmup %q", spec.Warmup)
	}

	full := JobSpec{Experiment: "exp1", Trials: 2}
	forked := full
	forked.Warmup = "shared"
	if forked.Key() == full.Key() {
		t.Error("warmup mode did not change the dedup key")
	}
	ref := full
	ref.Warmup = "shared-fresh"
	if ref.Key() == forked.Key() {
		t.Error("shared and shared-fresh share a dedup key")
	}

	r := DefaultRegistry()
	if _, err := r.Validate(forked); err != nil {
		t.Errorf("sweep with warmup rejected: %v", err)
	}
	scenario := JobSpec{Experiment: "scenarioA", Target: "lightbulb", Warmup: "shared"}
	if _, err := r.Validate(scenario); err == nil {
		t.Error("scenario job with a warmup validated")
	}
}

// TestWarmupStreamsMatch is the serving layer's differential determinism
// check: the same sweep job served in fork mode and in its fresh-world
// reference mode must stream byte-identical bodies.
func TestWarmupStreamsMatch(t *testing.T) {
	r := DefaultRegistry()
	render := func(spec JobSpec) []byte {
		t.Helper()
		cspec, err := r.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		runner := campaign.Runner{Workers: 3, Sinks: []campaign.Sink{campaign.NewBinary(campaign.NewNDJSONWriter(&buf))}}
		if _, err := runner.Run(cspec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	forked := render(JobSpec{Experiment: "exp1", Trials: 2, Warmup: "shared"})
	fresh := render(JobSpec{Experiment: "exp1", Trials: 2, Warmup: "shared-fresh"})
	if !bytes.Equal(forked, fresh) {
		t.Fatalf("fork and fresh-reference streams differ:\nforked:\n%s\nfresh:\n%s", forked, fresh)
	}
}
