// Package fabric shards campaigns across a fleet of injectabled workers
// and merges their result streams back into one deterministic campaign
// stream — the cross-node analogue of internal/campaign's worker pool.
//
// The pieces mirror the in-process engine one level up:
//
//   - Planner: a validated job spec is split into contiguous point-range
//     shards. Each shard is itself an ordinary serve.JobSpec carrying
//     point_start/point_count, and its canonical key is the spec's
//     SHA-256 dedup hash extended with the range — the same key on every
//     node, which is what lets fleet-wide dedup/replay semantics hold
//     (two coordinators sharding the same sweep produce byte-identical
//     shard jobs with identical cache keys on every worker).
//   - Dispatcher: shards fan out to worker daemons over the serve client.
//     A throttled worker backs off per Retry-After; a dead worker is
//     abandoned after consecutive transport failures and its shards are
//     redispatched to the survivors.
//   - Journal: every completed shard is appended to an on-disk
//     checkpoint (key, tallies, payload, digest) before it is merged, so
//     a crashed or restarted coordinator resumes a campaign without
//     recomputing finished shards — at million-trial scale losing the
//     coordinator must not mean losing the fleet's work.
//   - Merger: shard payloads are released in shard order through
//     campaign.Collator — the exact ordered-collation mechanism the
//     in-process runner uses for trials — under one global binary
//     header/trailer, so the merged stream is byte-identical to a
//     single-process run of the whole spec; NDJSON output renders it
//     through campaign.NDJSONWriter.
//
// Determinism is inherited, not re-proven: per-point seed bases are
// absolute, so a shard's result lines are the same bytes whether the
// point ran in a full campaign, alone on a worker, or replayed from a
// worker's cache.
package fabric

import (
	"fmt"

	"injectable/internal/serve"
)

// Shard is one dispatchable unit: a contiguous point range of a campaign.
type Shard struct {
	// Index is the shard's position in the plan; the merger releases
	// payloads in index order.
	Index int
	// Spec is the shard's job spec: the campaign spec plus its point
	// range. It is served by ordinary workers with no fabric knowledge.
	Spec serve.JobSpec
	// Key is the shard's canonical identity (spec hash + point range) —
	// the journal checkpoint key and the workers' dedup/cache key.
	Key string
	// Points and Trials size the shard.
	Points int
	Trials int
}

// Plan is a sharded campaign: the full-spec identity the merged stream
// advertises plus the ordered shard list.
type Plan struct {
	// Spec is the normalized full-campaign spec.
	Spec serve.JobSpec
	// Key is the full campaign's canonical hash.
	Key string
	// Name is the campaign name the stream header carries (the campaign
	// spec's Name, e.g. "fig9-exp1" or "scenarioA/lightbulb").
	Name string
	// SeedBase, Points and Trials are the header's identity fields.
	SeedBase uint64
	Points   int
	Trials   int
	// Shards lists the dispatch units in merge order.
	Shards []Shard
}

// PlanShards validates spec against the registry and splits it into at
// most maxShards contiguous point-range shards (0 = one shard per point,
// the finest grain). The spec must not itself carry a point range —
// shards of shards would break the merged stream's identity.
func PlanShards(reg *serve.Registry, spec serve.JobSpec, maxShards int) (*Plan, error) {
	if spec.PointStart != 0 || spec.PointCount != 0 {
		return nil, fmt.Errorf("fabric: spec already carries a point range [%d,+%d)",
			spec.PointStart, spec.PointCount)
	}
	if maxShards < 0 {
		return nil, fmt.Errorf("fabric: negative shard count %d", maxShards)
	}
	norm, err := reg.Validate(spec)
	if err != nil {
		return nil, err
	}
	cspec, err := reg.Build(norm)
	if err != nil {
		return nil, err
	}
	points := len(cspec.Points)
	if points == 0 {
		return nil, fmt.Errorf("fabric: experiment %q expands to zero points", norm.Experiment)
	}
	shards := maxShards
	if shards == 0 || shards > points {
		shards = points
	}

	plan := &Plan{
		Spec:     norm,
		Key:      norm.Key(),
		Name:     cspec.Name,
		SeedBase: cspec.SeedBase,
		Points:   points,
		Trials:   cspec.TotalTrials(),
	}
	// Near-equal contiguous ranges: the first (points % shards) shards
	// take one extra point.
	start := 0
	for i := 0; i < shards; i++ {
		count := points / shards
		if i < points%shards {
			count++
		}
		sspec := norm
		if !(start == 0 && count == points) {
			// A shard spanning every point IS the full campaign; keeping
			// the zero range makes its key (and the workers' cache entry)
			// coincide with an unsharded submission of the same spec.
			sspec.PointStart, sspec.PointCount = start, count
		}
		trials := 0
		for _, p := range cspec.Points[start : start+count] {
			if p.Trials > 0 {
				trials += p.Trials
			}
		}
		plan.Shards = append(plan.Shards, Shard{
			Index:  i,
			Spec:   sspec,
			Key:    sspec.Key(),
			Points: count,
			Trials: trials,
		})
		start += count
	}
	return plan, nil
}
