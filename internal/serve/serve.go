// Package serve turns the campaign engine into a long-lived service: a
// daemon that accepts experiment and attack-scenario jobs over HTTP/JSON,
// validates them against a registry derived from internal/experiments,
// and executes them on shared campaign worker pools.
//
// The serving layer adds what the batch CLIs cannot offer:
//
//   - Admission control: a bounded priority-FIFO queue; a full queue
//     rejects with 429 and a Retry-After hint instead of blocking.
//   - Deduplication: jobs are keyed by a canonical hash of their
//     normalized spec. Identical in-flight submissions collapse onto one
//     execution (singleflight) and completed results are kept in an LRU
//     cache — and because campaign result streams are deterministic, a
//     cached response is byte-identical to a live run of the same spec.
//   - Streaming: per-trial results flow to every subscriber as NDJSON (or
//     SSE) in deterministic ordinal order while the campaign runs.
//   - Lifecycle: per-job deadlines and cancellation ride the
//     context.Context plumbed through campaign.RunContext; SIGTERM drain
//     finishes every accepted job while rejecting new ones.
//
// Everything is observable through an obs.Hub: queue depth, in-flight
// gauge, admission rejects, cache hit/miss counters and end-to-end
// latency histograms.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// Limits bound what a single job may ask for; they are admission policy,
// not correctness constraints.
const (
	// MaxTrials caps trials per job (a 500-trial scenario job is minutes
	// of simulation — beyond that, split the work into several jobs).
	MaxTrials = 500
	// MaxPriority is the highest admission priority (0 is the default and
	// lowest; higher priorities dequeue first).
	MaxPriority = 9
	// maxSpecBytes bounds the request body the decoder will look at.
	maxSpecBytes = 1 << 16
	// maxPoints bounds point_start/point_count at the decoder (no real
	// sweep has more points; the registry enforces the exact range).
	maxPoints = 1 << 20
)

// JobSpec is the wire form of one campaign job.
type JobSpec struct {
	// Experiment names a registry entry: a sweep ("exp1", "ablation-sca",
	// …) or a scenario ("scenarioA", …, "keystrokes").
	Experiment string `json:"experiment"`
	// Target selects the scenario's victim device ("lightbulb", "keyfob",
	// "smartwatch"). Sweeps and the keystrokes scenario take none.
	Target string `json:"target,omitempty"`
	// Trials is the per-point trial count (0 = the paper's 25).
	Trials int `json:"trials,omitempty"`
	// SeedBase roots every derived trial seed (0 = 1000, the CLI default).
	SeedBase uint64 `json:"seed_base,omitempty"`
	// Priority orders admission: higher pops first, FIFO within a level.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS is the job's run deadline in milliseconds (0 = server
	// default). It does not affect results, only whether they arrive, so
	// it is excluded from the dedup key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// PointStart and PointCount restrict the job to a contiguous range of
	// the experiment's sweep points: [PointStart, PointStart+PointCount),
	// with PointCount 0 meaning "through the last point". (0, 0) runs the
	// whole experiment. The distributed campaign fabric shards sweeps
	// along this axis; the range changes which results the stream holds,
	// so unlike priority/timeout it participates in the dedup key.
	PointStart int `json:"point_start,omitempty"`
	PointCount int `json:"point_count,omitempty"`
	// Warmup selects the sweep's trial execution strategy: "" (each trial
	// builds its own world, the historical default), "shared" (trials fork
	// a per-point warm snapshot) or "shared-fresh" (the fork path's
	// differential reference). "shared" and "shared-fresh" produce
	// byte-identical streams to each other but draw warm-phase randomness
	// from a different stream than "", so the mode participates in the
	// dedup key. Scenario jobs reject a warmup.
	Warmup string `json:"warmup,omitempty"`
	// Scenario carries an inline declarative world spec
	// (internal/scenario) instead of a catalog experiment name. When set,
	// Experiment must be empty or "scenario" and Target empty; the job
	// compiles the spec into its campaign. Admission (Registry.Admit),
	// DecodeJobSpec and ScenarioJobSpec, the programmatic entry, validate
	// the payload and rewrite it to its canonical encoding, so the dedup
	// key — which hashes these bytes — is identical for every spelling of
	// the same world, on every node.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// ScenarioExperiment is the Experiment value of normalized inline-
// scenario jobs.
const ScenarioExperiment = "scenario"

// DecodeJobSpec parses a job spec strictly: unknown fields, trailing
// garbage and out-of-range values are errors. It does not check the
// experiment name against a registry — that is the server's job, so the
// decoder stays a pure function fit for fuzzing. An inline scenario is
// validated and rewritten to its canonical encoding.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	spec, err := decodeJobSpec(data)
	if err != nil || len(spec.Scenario) == 0 {
		return spec, err
	}
	a, err := admitScenario(spec)
	if err != nil {
		return JobSpec{}, err
	}
	spec.Scenario = a.Spec.Scenario
	return spec, nil
}

// decodeJobSpec is DecodeJobSpec without the scenario's admission: the
// daemon's HTTP paths admit the spec once, when they submit it.
func decodeJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	if len(data) > maxSpecBytes {
		return spec, fmt.Errorf("serve: job spec exceeds %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("serve: decoding job spec: %w", err)
	}
	if dec.More() {
		return JobSpec{}, errors.New("serve: trailing data after job spec")
	}
	if err := spec.check(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// admitScenario admits an inline-scenario spec: decoder-level bounds, a
// strict decode, semantic validation against the admission limits (device
// count, point count, sim-time budget — all before any world exists) and
// the rewrite to canonical bytes, so the normalized spec's key matches
// every other spelling of the same world. It needs no registry (the
// scenario package is pure), which is what lets the decoders share it.
func admitScenario(spec JobSpec) (Admission, error) {
	if err := spec.check(); err != nil {
		return Admission{}, err
	}
	norm := spec.Normalize()
	sp, err := scenario.DecodeSpec(norm.Scenario)
	if err != nil {
		return Admission{}, fmt.Errorf("serve: scenario: %w", err)
	}
	adm, err := scenario.Admit(sp, norm.Trials, scenario.DefaultLimits)
	if err != nil {
		return Admission{}, fmt.Errorf("serve: scenario: %w", err)
	}
	if norm.Scenario, err = scenario.EncodeCanonical(sp); err != nil {
		return Admission{}, err
	}
	return Admission{Spec: norm, scen: adm}, nil
}

// ScenarioJobSpec embeds a raw declarative scenario into base: the spec
// is strictly decoded, validated against the admission limits and
// rewritten to its canonical encoding, so the returned JobSpec computes
// the same dedup key a daemon would — which is what lets clients and the
// fabric coordinator key caches and journals before ever talking to a
// worker.
func ScenarioJobSpec(raw []byte, base JobSpec) (JobSpec, error) {
	base = scenarioJob(raw, base)
	a, err := admitScenario(base)
	if err != nil {
		return JobSpec{}, err
	}
	base.Scenario = a.Spec.Scenario
	return base, nil
}

// scenarioJob embeds a raw scenario into base, unadmitted.
func scenarioJob(raw []byte, base JobSpec) JobSpec {
	base.Experiment = ScenarioExperiment
	base.Target = ""
	base.Scenario = raw
	return base
}

// check enforces the decoder-level bounds (registry-independent).
func (s JobSpec) check() error {
	if s.Experiment == "" && len(s.Scenario) == 0 {
		return errors.New("serve: job spec missing experiment")
	}
	if len(s.Scenario) > 0 {
		if s.Experiment != "" && s.Experiment != ScenarioExperiment {
			return fmt.Errorf("serve: experiment %q cannot carry an inline scenario", s.Experiment)
		}
		if s.Target != "" {
			return errors.New("serve: scenario jobs take no target")
		}
	}
	if s.Trials < 0 || s.Trials > MaxTrials {
		return fmt.Errorf("serve: trials %d out of range [0,%d]", s.Trials, MaxTrials)
	}
	if s.Priority < 0 || s.Priority > MaxPriority {
		return fmt.Errorf("serve: priority %d out of range [0,%d]", s.Priority, MaxPriority)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", s.TimeoutMS)
	}
	if s.PointStart < 0 || s.PointStart > maxPoints {
		return fmt.Errorf("serve: point_start %d out of range [0,%d]", s.PointStart, maxPoints)
	}
	if s.PointCount < 0 || s.PointCount > maxPoints {
		return fmt.Errorf("serve: point_count %d out of range [0,%d]", s.PointCount, maxPoints)
	}
	if !experiments.ValidWarmup(s.Warmup) {
		return fmt.Errorf("serve: unknown warmup %q (want %q or %q)",
			s.Warmup, experiments.WarmupShared, experiments.WarmupSharedFresh)
	}
	return nil
}

// Normalize applies the spec defaults (trials 25, seed base 1000 — the
// same defaults the CLI applies), so two specs that would run the same
// campaign normalize to the same value. Normalize is idempotent.
func (s JobSpec) Normalize() JobSpec {
	if s.Trials == 0 {
		s.Trials = 25
	}
	if s.SeedBase == 0 {
		s.SeedBase = 1000
	}
	if len(s.Scenario) > 0 {
		s.Experiment = ScenarioExperiment
	}
	return s
}

// Key returns the canonical dedup/cache key: a SHA-256 over the fields
// that determine the result stream — experiment, target, trials, seed
// base, and the point range when one is set — after normalization.
// Priority and timeout shape scheduling, not results, and are
// deliberately excluded. A full-campaign spec (no point range) hashes
// exactly as it did before ranges existed, so fleet-wide dedup keys stay
// stable across daemon versions; a shard's key extends the campaign hash
// with its range, which is what makes shard keys canonical across the
// fleet (same spec + same range → same key on every node).
// Key is on the cache-hit hot path, so it renders the preimage into a
// small append buffer and hashes with sha256.Sum256 instead of streaming
// fmt.Fprintf through a sha256.New writer; the preimage bytes — and
// therefore every key — are identical to what earlier daemon versions
// produced.
func (s JobSpec) Key() string {
	n := s.Normalize()
	buf := make([]byte, 0, 96)
	buf = append(buf, n.Experiment...)
	buf = append(buf, 0)
	buf = append(buf, n.Target...)
	buf = append(buf, 0)
	buf = strconv.AppendInt(buf, int64(n.Trials), 10)
	buf = append(buf, 0)
	buf = strconv.AppendUint(buf, n.SeedBase, 10)
	if n.PointStart != 0 || n.PointCount != 0 {
		buf = append(buf, "\x00points\x00"...)
		buf = strconv.AppendInt(buf, int64(n.PointStart), 10)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(n.PointCount), 10)
	}
	// Like the point range, the warmup mode extends the preimage only when
	// set, so pre-existing keys are unchanged.
	if n.Warmup != "" {
		buf = append(buf, "\x00warmup\x00"...)
		buf = append(buf, n.Warmup...)
	}
	// An inline scenario extends the preimage with its canonical spec
	// bytes (DecodeJobSpec/ScenarioJobSpec rewrite the payload), so equal
	// worlds hash equal whatever the author's field order or default
	// spelling — and catalog job keys stay byte-stable.
	if len(n.Scenario) > 0 {
		buf = append(buf, "\x00scenario\x00"...)
		buf = append(buf, n.Scenario...)
	}
	sum := sha256.Sum256(buf)
	var hx [64]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:32])
}
