package simtest

import (
	"fmt"

	"injectable/internal/campaign"
)

// SwarmConfig configures a randomized-world swarm.
type SwarmConfig struct {
	// SeedBase is the first world seed; world i runs seed SeedBase+i.
	SeedBase uint64
	// Worlds is how many consecutive seeds to run.
	Worlds int
	// Parallel bounds worker concurrency (0 = GOMAXPROCS). Results are
	// identical for every value — the campaign pool collates by ordinal.
	Parallel int
	// Fork, when set, runs every world through the fork-equivalence check
	// (RunWorldFork): each world is snapshotted at a seed-derived mid-run
	// instant, run to its horizon, rolled back and replayed, and any
	// timeline divergence is reported as a "fork-divergence" violation.
	Fork bool
	// Mutate, when set, adjusts each generated world before it runs (used
	// for fault injection and targeted swarms).
	Mutate func(*World)
	// OnResult streams results in seed order as worlds complete.
	OnResult func(Result)
}

// SwarmSummary aggregates a swarm run.
type SwarmSummary struct {
	Worlds    int
	Connected int
	// ByGoal counts worlds per attacker goal.
	ByGoal map[string]int
	// Failures holds every failing world's result, in seed order.
	Failures []Result
	// Errors holds construction/panic failures (distinct from invariant
	// violations), in seed order.
	Errors []error
}

// Failed reports whether any world violated an invariant or crashed.
func (s SwarmSummary) Failed() bool { return len(s.Failures) > 0 || len(s.Errors) > 0 }

// Swarm runs cfg.Worlds randomized worlds under the invariant engine on
// the campaign pool. Worlds are independent and deterministic per seed, so
// the summary is identical at any Parallel setting.
func Swarm(cfg SwarmConfig) (SwarmSummary, error) {
	if cfg.Worlds <= 0 {
		return SwarmSummary{}, fmt.Errorf("simtest: swarm needs at least one world")
	}
	sum := SwarmSummary{Worlds: cfg.Worlds, ByGoal: make(map[string]int)}
	runWorld := RunWorld
	if cfg.Fork {
		runWorld = RunWorldFork
	}
	spec := &campaign.Spec{
		Name:     "simtest-swarm",
		SeedBase: cfg.SeedBase,
		Points: []campaign.Point{{
			Label:  "world",
			Trials: cfg.Worlds,
			Seed:   func(i int) uint64 { return cfg.SeedBase + uint64(i) },
			Run: func(t campaign.Trial) (any, error) {
				w := Generate(t.Seed)
				if cfg.Mutate != nil {
					cfg.Mutate(&w)
				}
				return runWorld(t.Seed, w)
			},
		}},
	}
	collect := campaign.OnResult(func(r campaign.Result) {
		if r.Err != nil {
			sum.Errors = append(sum.Errors, fmt.Errorf("simtest: seed %d: %w", r.Seed, r.Err))
			return
		}
		res := r.Value.(Result)
		sum.ByGoal[res.World.Goal()]++
		if res.Connected {
			sum.Connected++
		}
		if res.Failed() {
			sum.Failures = append(sum.Failures, res)
		}
		if cfg.OnResult != nil {
			cfg.OnResult(res)
		}
	})
	runner := &campaign.Runner{Workers: cfg.Parallel, Sinks: []campaign.Sink{collect}}
	if _, err := runner.Run(spec); err != nil {
		return sum, err
	}
	return sum, nil
}
