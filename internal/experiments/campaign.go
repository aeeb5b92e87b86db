package experiments

import (
	"fmt"

	"injectable/internal/campaign"
)

// SweepPoint is one configuration of a Fig. 9-style sweep, bound to the
// absolute seed base its trials draw from. Trial i runs with seed
// SeedBase+i — the historical linear layout of the serial loops — so the
// campaign engine reproduces the exact same worlds (and therefore tables)
// at any worker count. It is exported (with BuildSweep) so that external
// point builders — the declarative scenario compiler in
// internal/scenario — expand into the exact campaign shape the in-repo
// catalog uses, warmup fork path included.
type SweepPoint struct {
	Label string
	// SeedBase is the absolute base seed; trial i uses SeedBase + i.
	SeedBase uint64
	// Trials overrides Options.TrialsPerPoint when non-zero.
	Trials int
	Cfg    TrialConfig
}

// runner builds the campaign runner for these options: opts.Parallel
// workers (0 = all cores, 1 = the serial degenerate case), fail-fast like
// the former serial loops, plus the optional JSONL, metrics and verbose
// streams.
func (o Options) runner(sinks ...campaign.Sink) *campaign.Runner {
	if o.JSONL != nil {
		sinks = append(sinks, campaign.NewJSONL(o.JSONL))
	}
	if o.NDJSON != nil {
		sinks = append(sinks, campaign.NewBinary(campaign.NewNDJSONWriter(o.NDJSON)))
	}
	if o.Metrics != nil {
		sinks = append(sinks, campaign.NewObsJSONL(o.Metrics))
	}
	if o.Verbose != nil {
		w := o.Verbose
		sinks = append(sinks, campaign.SinkFuncs{OnFinish: func(m campaign.Metrics) {
			fmt.Fprintf(w, "campaign: workers=%d trials=%d ok=%d failed=%d retried=%d wall=%v utilization=%.0f%%\n",
				m.Workers, m.Trials, m.Succeeded, m.Failed, m.Retried, m.Wall.Round(1e6), 100*m.Utilization())
		}})
	}
	return &campaign.Runner{
		Workers:    o.Parallel,
		FailFast:   true,
		Sinks:      sinks,
		CollectObs: o.Metrics != nil,
	}
}

// Warmup modes accepted by Options.Warmup (see its doc comment).
const (
	// WarmupShared forks every trial from a per-(worker, point) snapshot.
	WarmupShared = "shared"
	// WarmupSharedFresh is the fork path's differential reference: fresh
	// worlds, shared warm seed, per-trial rekey.
	WarmupSharedFresh = "shared-fresh"
)

// ValidWarmup reports whether s names a warmup mode ("" included).
func ValidWarmup(s string) bool {
	return s == "" || s == WarmupShared || s == WarmupSharedFresh
}

// BuildSweep expands the points into a campaign spec whose trial functions
// run RunTrial and return TrialResult values. The serving layer builds
// specs through here too (via SweepSpec), and the scenario DSL compiler
// feeds its own points through here, so a daemon job — catalog or
// DSL-defined — executes the exact campaign a CLI sweep would, including
// the "shared"/"shared-fresh" snapshot-fork warmup strategies.
func BuildSweep(opts Options, name string, pts []SweepPoint) *campaign.Spec {
	spec := &campaign.Spec{Name: name, SeedBase: opts.SeedBase}
	for _, sp := range pts {
		cfg := sp.Cfg
		base := sp.SeedBase
		trials := sp.Trials
		if trials == 0 {
			trials = opts.TrialsPerPoint
		}
		point := campaign.Point{
			Label:  sp.Label,
			Trials: trials,
			Seed:   func(i int) uint64 { return base + uint64(i) },
		}
		switch opts.Warmup {
		case WarmupShared:
			point.WarmSeed = WarmTrialSeed(base)
			point.Warmup = func(u campaign.Warmup) (any, error) {
				c := cfg
				c.Arena = u.Arena
				c.Ctx = u.Ctx
				wt, err := NewWarmTrial(c, u.Seed)
				if err != nil {
					return nil, err
				}
				return wt, nil
			}
			point.Run = func(t campaign.Trial) (any, error) {
				if t.WarmErr != nil {
					// Unwrapped, and paired with a zero TrialResult — exactly
					// what a shared-fresh trial yields when its own warm phase
					// fails, so the two modes' NDJSON streams stay identical.
					return TrialResult{}, t.WarmErr
				}
				return t.Warm.(*WarmTrial).RunFork(t.Seed, t.Obs, t.Ctx)
			}
		case WarmupSharedFresh:
			point.Run = func(t campaign.Trial) (any, error) {
				c := cfg
				c.Obs = t.Obs
				c.Arena = t.Arena
				c.Ctx = t.Ctx
				return RunTrialWarmFresh(c, WarmTrialSeed(base), t.Seed)
			}
		default:
			point.Run = func(t campaign.Trial) (any, error) {
				c := cfg
				c.Seed = t.Seed
				c.Obs = t.Obs     // nil unless the runner collects observability
				c.Arena = t.Arena // worker-local allocation reuse
				c.Ctx = t.Ctx     // campaign cancellation/deadline
				return RunTrial(c)
			}
		}
		spec.Points = append(spec.Points, point)
	}
	return spec
}

// RunSweepPoints executes pre-built points as one campaign and collates
// each point's trials, exactly like the catalog entry points do. It is
// the in-process execution path for external point builders — the
// scenario DSL's Execute runs its compiled points through here.
func RunSweepPoints(opts Options, name string, pts []SweepPoint) ([]Point, error) {
	return runSweep(opts, name, pts)
}

// runSweep executes the points as one campaign and collates each point's
// trials into a SeriesResult. Results stream back in deterministic trial
// order regardless of opts.Parallel, so the accumulated series — and any
// table rendered from it — is bit-for-bit identical to a serial run.
func runSweep(opts Options, name string, pts []SweepPoint) ([]Point, error) {
	spec := BuildSweep(opts, name, pts)
	index := make(map[string]int, len(pts))
	for i, sp := range pts {
		index[sp.Label] = i
	}

	series := make([]SeriesResult, len(pts))
	collect := campaign.OnResult(func(r campaign.Result) {
		if r.Err != nil {
			return // fail-fast surfaces it as the campaign error
		}
		s := &series[index[r.Point]]
		res := r.Value.(TrialResult)
		if res.Success {
			s.Stats.Add(res.Attempts)
		} else {
			s.Failures++
		}
		if res.HeuristicAgrees {
			s.Heuristic.Agree++
		} else {
			s.Heuristic.Disagree++
		}
		opts.progress(r.Point, r.Index)
	})
	if _, err := opts.runner(collect).Run(spec); err != nil {
		return nil, err
	}
	points := make([]Point, len(pts))
	for i, sp := range pts {
		points[i] = Point{Label: sp.Label, Series: series[i]}
	}
	return points, nil
}
