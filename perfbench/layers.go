package main

import (
	"fmt"
	"io"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/scenario"
	"injectable/internal/serve"
)

// The per-layer measurements the workloads share: counts from per-trial
// hubs, and the codec, aggregate and scenario-admission calls timed on
// each workload's own streams and specs.

// layerReps is how many times each per-layer micro-measurement repeats
// (the median is reported).
const layerReps = 51

// simStats fills the simulated statistics from per-trial hub snapshots:
// exact counts of the work the simulator did, equal for equal seeds.
func simStats(out *campaign.Outcome, m map[string]float64) {
	sums := map[string]float64{}
	n := 0
	for _, r := range out.Results {
		if r.Obs == nil {
			continue
		}
		n++
		for _, c := range r.Obs.Counters {
			sums[c.Name] += float64(c.Value)
		}
	}
	if n == 0 {
		return
	}
	per := func(name string) float64 { return sums[name] / float64(n) }
	m["medium.frames_per_trial"] = per("medium.tx.frames")
	m["medium.collisions_per_trial"] = per("medium.rx.collisions")
	m["link.events_per_trial"] = per("link.event.count")
	m["link.windows_per_trial"] = per("link.win.open")
	m["inject.attempts_per_trial"] = per("inject.attempts")
	m["phy.airtime_ms_per_trial"] = per("phy.airtime_us") / 1000
	if a := sums["inject.attempts"]; a > 0 {
		m["inject.hit_ratio"] = sums["inject.hits"] / a
	}
}

// streamLayers times the result codec and the aggregate on one of the
// workload's binary streams, per trial.
func streamLayers(stream []byte, m map[string]float64) error {
	info, recs, tl, err := campaign.DecodeBinary(stream)
	if err != nil {
		return err
	}
	n := float64(max(len(recs), 1))
	enc, err := timeOp(layerReps, func() error { campaign.EncodeBinary(info, recs, tl); return nil })
	if err != nil {
		return err
	}
	nd, err := timeOp(layerReps, func() error { return campaign.TranscodeBinaryToNDJSON(io.Discard, stream) })
	if err != nil {
		return err
	}
	agg, err := timeOp(layerReps, func() error { _, err := serve.AggregateStream(stream); return err })
	if err != nil {
		return err
	}
	m["campaign.encode_us_per_trial"] = us(enc) / n
	m["campaign.ndjson_us_per_trial"] = us(nd) / n
	m["campaign.bytes_per_trial"] = float64(len(stream)) / n
	m["serve.aggregate_us"] = us(agg)
	return nil
}

// scenarioLayers times scenario admission — decode, validate,
// canonicalize, compile — on the workload's specs, per spec.
func scenarioLayers(raws [][]byte, trials int, m map[string]float64) error {
	specs := make([]scenario.Spec, len(raws))
	for i, raw := range raws {
		sp, err := scenario.DecodeSpec(raw)
		if err != nil {
			return err
		}
		specs[i] = sp
	}
	n := float64(len(raws))
	opts := experiments.Options{TrialsPerPoint: trials}
	for _, op := range []struct {
		metric string
		f      func(i int) error
	}{
		{"scenario.decode_us", func(i int) error { _, err := scenario.DecodeSpec(raws[i]); return err }},
		{"scenario.validate_us", func(i int) error { return scenario.Validate(specs[i], trials, scenario.DefaultLimits) }},
		{"scenario.canonical_us", func(i int) error { _, err := scenario.EncodeCanonical(specs[i]); return err }},
		{"scenario.compile_us", func(i int) error { _, err := scenario.Compile(specs[i], opts); return err }},
	} {
		d, err := timeOp(layerReps, func() error {
			for i := range raws {
				if err := op.f(i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", op.metric, err)
		}
		m[op.metric] = us(d) / n
	}
	return nil
}

// spanMedians sets each metric to the p50 of the named spans' durations,
// in the metric's unit (a name ending in _us is microseconds, else ms).
func spanMedians(tr *tracer, m map[string]float64, metrics map[string]string) error {
	for _, metric := range sortedKeys(metrics) {
		d := durationsMS(tr.named(metrics[metric]))
		v, err := percentile(d, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
		if len(metric) > 3 && metric[len(metric)-3:] == "_us" {
			v *= 1000
		}
		m[metric] = v
	}
	return nil
}
