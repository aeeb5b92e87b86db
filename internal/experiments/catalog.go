package experiments

import (
	"fmt"
	"io"
	"sort"

	"injectable/internal/campaign"
	"injectable/internal/injectable"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// Options tunes experiment volume (the paper runs 25 connections per
// configuration; tests may use fewer).
type Options struct {
	// TrialsPerPoint is the number of connections per configuration
	// (0 = 25, as in the paper).
	TrialsPerPoint int
	// SeedBase decorrelates repeated runs.
	SeedBase uint64
	// Progress observes completed trials. Trials are reported in
	// deterministic serial order regardless of Parallel.
	Progress func(point string, trial int)
	// Parallel is the campaign worker count: 0 = all cores, 1 = strictly
	// serial. Results are bit-for-bit identical at any setting; only wall
	// time changes.
	Parallel int
	// JSONL, when non-nil, receives one JSON line per trial (plus campaign
	// header and metrics trailer lines) for offline analysis.
	JSONL io.Writer
	// NDJSON, when non-nil, receives the deterministic result stream:
	// the campaign's binary stream rendered through
	// campaign.NewNDJSONWriter, with no wall-clock fields, byte-identical
	// at any Parallel setting and across runs. It is the rendering the
	// serving daemon answers with; the flag exists on cmd/experiments so
	// the two paths can be diffed directly.
	NDJSON io.Writer
	// Metrics, when non-nil, turns on per-trial observability (a fresh
	// obs.Hub per trial) and receives the aggregated per-point metric
	// snapshots as JSON lines. The stream is byte-identical at any
	// Parallel setting.
	Metrics io.Writer
	// Verbose, when non-nil, receives the campaign engine's run summary
	// (workers, trials, retries, utilization) after each sweep.
	Verbose io.Writer
	// Warmup selects the trial execution strategy for sweeps:
	//
	//   ""             — historical default: every trial builds and warms its
	//                    own world from its own seed.
	//   "shared"       — fork fast path: each worker warms one world per
	//                    point (connection established, sniffer synced),
	//                    snapshots it, and forks every trial from the
	//                    snapshot with trial-specific randomness.
	//   "shared-fresh" — differential reference for "shared": every trial
	//                    builds a fresh world but warms it with the point's
	//                    shared warm seed and rekeys with the trial seed.
	//                    Byte-identical outputs to "shared" with no snapshot
	//                    machinery involved — any divergence between the two
	//                    modes indicts snapshot/restore.
	//
	// "shared" and "shared-fresh" agree with each other but sample different
	// worlds than "": the warm phase draws from the shared warm seed rather
	// than the trial seed, so per-trial numbers differ from the historical
	// stream (statistics are equivalent).
	Warmup string
	// PointStart/PointCount select a contiguous sub-range of a servable
	// study's points: the range [PointStart, PointStart+PointCount), with
	// PointCount 0 meaning "through the last point". The distributed
	// fabric shards campaigns along this axis; per-point seed bases are
	// absolute, so a sliced run's trials are bit-identical to the same
	// points inside a full run. (0, 0) — the zero value — selects every
	// point. SweepSpec, RunSweep (HeuristicValidation included),
	// ExperimentCounterfactual and ScenarioSpec honor the range; the other
	// studies always run whole.
	PointStart int
	PointCount int
}

func (o *Options) applyDefaults() {
	if o.TrialsPerPoint == 0 {
		o.TrialsPerPoint = 25
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1000
	}
}

// WithDefaults returns o with the trial-count and seed-base defaults
// applied — the exported face of applyDefaults for external spec
// compilers (internal/scenario) that must mirror the catalog's
// normalization exactly.
func (o Options) WithDefaults() Options {
	o.applyDefaults()
	return o
}

// Point is one configuration's result within an experiment series.
type Point struct {
	Label  string
	Series SeriesResult
}

// Experiment is one reproduced figure panel.
type Experiment struct {
	ID     string
	Title  string
	XLabel string
	Points []Point
	Notes  []string
}

// Table renders the experiment as a stats table with ASCII boxplots.
func (e *Experiment) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("%s — %s", e.ID, e.Title),
		Header: append(append([]string{e.XLabel}, StatsHeader()...), "fail", "boxplot(0..max)"),
		Notes:  e.Notes,
	}
	for _, p := range e.Points {
		row := append([]string{p.Label}, p.Series.Stats.Row()...)
		row = append(row, fmt.Sprintf("%d", p.Series.Failures), p.Series.Stats.Boxplot(24))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// progress is a nil-safe progress call.
func (o *Options) progress(point string, trial int) {
	if o.Progress != nil {
		o.Progress(point, trial)
	}
}

// catalogEntry is one servable sweep: everything that tells one study of
// the catalog from another. A point is a label and a TrialConfig whose
// zero knobs WithDefaults fills in (the Fig. 8 triangle, Hop Interval 36,
// the power-off frame); catalogSweep gives it its seed base and trial
// count.
type catalogEntry struct {
	name   string // servable name: SweepNames, cmd/experiments -run
	id     string // campaign name and table id
	title  string
	xlabel string
	notes  []string
	// offset places the study's seed block: point i draws its trials from
	// SeedBase + offset + i·1000.
	offset uint64
	// trials multiplies Options.TrialsPerPoint (0 keeps it).
	trials int
	points []SweepPoint
	// build expands a study whose trials do not return TrialResults
	// (nil = BuildSweep).
	build func(opts Options, name string, pts []SweepPoint) *campaign.Spec
}

// payloadPoints are the four injected frames at Hop Interval 75: exp2's
// points, and the counterfactual's in its own seed block.
var payloadPoints = []SweepPoint{
	{Label: "terminate(4B)", Cfg: TrialConfig{Interval: 75, Payload: PayloadTerminate}},
	{Label: "toggle(9B)", Cfg: TrialConfig{Interval: 75, Payload: PayloadToggle}},
	{Label: "power-off(14B)", Cfg: TrialConfig{Interval: 75, Payload: PayloadPowerOff}},
	{Label: "color(16B)", Cfg: TrialConfig{Interval: 75, Payload: PayloadColor}},
}

// wall is exp3wall's 7 dB interior wall at x = -0.5 m, between the bulb
// and every attacker position.
var wall = []phy.Wall{{A: phy.Position{X: -0.5, Y: -10}, B: phy.Position{X: -0.5, Y: 10}, Loss: phy.DefaultWallLoss}}

// smartphone is an exp3 world: the attacker at (x, 0), across the bulb
// from a smartphone central. Phones run BLE from a busy SoC, so their
// sleep clock is looser and their scheduling jitter larger than a
// dedicated controller's.
func smartphone(x float64, walls []phy.Wall) TrialConfig {
	return TrialConfig{
		AttackerPos: phy.Position{X: x}, Walls: walls,
		CentralPPM: 50, CentralJitter: 8 * sim.Microsecond,
	}
}

// catalog is every servable sweep, in seed-block order. Its values are
// shared by every campaign built from it and are never written.
var catalog = []catalogEntry{
	{
		// Fig. 9, experiment 1 (§VII-A).
		name: "exp1", id: "fig9-exp1",
		title:  "attempts before successful injection vs Hop Interval",
		xlabel: "hopInterval",
		notes:  []string{"paper: injection always succeeds; variance decreases 25→100 then stabilises; median < 4"},
		offset: 0,
		points: []SweepPoint{
			{Label: "25", Cfg: TrialConfig{Interval: 25}},
			{Label: "50", Cfg: TrialConfig{Interval: 50}},
			{Label: "75", Cfg: TrialConfig{Interval: 75}},
			{Label: "100", Cfg: TrialConfig{Interval: 100}},
			{Label: "125", Cfg: TrialConfig{Interval: 125}},
			{Label: "150", Cfg: TrialConfig{Interval: 150}},
		},
	},
	{
		// Fig. 9, experiment 2 (§VII-B).
		name: "exp2", id: "fig9-exp2",
		title:  "attempts before successful injection vs payload size (Hop Interval 75)",
		xlabel: "payload",
		notes:  []string{"paper: reliability increases as payload shrinks (smaller collision overlap); median < 3"},
		offset: 10000,
		points: payloadPoints,
	},
	{
		// Fig. 9, experiment 3 (§VII-C): positions A–F of Fig. 8 right.
		name: "exp3", id: "fig9-exp3",
		title:  "attempts before successful injection vs attacker distance (smartphone master)",
		xlabel: "distance",
		notes:  []string{"paper: variance increases with distance; injection still succeeds from every position (A–F)"},
		offset: 20000,
		points: []SweepPoint{
			{Label: "A:1m", Cfg: smartphone(-1, nil)},
			{Label: "B:2m", Cfg: smartphone(-2, nil)},
			{Label: "C:4m", Cfg: smartphone(-4, nil)},
			{Label: "D:6m", Cfg: smartphone(-6, nil)},
			{Label: "E:8m", Cfg: smartphone(-8, nil)},
			{Label: "F:10m", Cfg: smartphone(-10, nil)},
		},
	},
	{
		// Fig. 9, experiment 3, the attacker behind a wall (§VII-C).
		name: "exp3wall", id: "fig9-exp3wall",
		title:  "attempts before successful injection vs distance behind a wall",
		xlabel: "distance",
		notes:  []string{"paper: more attempts than open air at the same distance; still succeeds in the worst case"},
		offset: 30000,
		points: []SweepPoint{
			{Label: "2m+wall", Cfg: smartphone(-2, wall)},
			{Label: "4m+wall", Cfg: smartphone(-4, wall)},
			{Label: "6m+wall", Cfg: smartphone(-6, wall)},
			{Label: "8m+wall", Cfg: smartphone(-8, wall)},
		},
	},
	{
		// The collision models of DESIGN.md §4.1: calibrated phase
		// capture, the "any overlap corrupts" assumption under which
		// Santos et al. dismissed injection, and a power-blind coin flip.
		name: "ablation-capture", id: "ablation-capture",
		title:  "capture model vs injection attempts (triangle, Hop Interval 36)",
		xlabel: "model",
		notes: []string{
			"pessimistic reproduces Santos et al.'s expectation: collisions always corrupt, so",
			"injection only succeeds when the frame fits before the master's — rarely at these intervals",
		},
		offset: 40000,
		points: []SweepPoint{
			{Label: "phase-capture", Cfg: TrialConfig{Capture: medium.DefaultCaptureModel(), Injector: injectable.InjectorConfig{MaxAttempts: 60}}},
			{Label: "pessimistic", Cfg: TrialConfig{Capture: medium.Pessimistic{}, Injector: injectable.InjectorConfig{MaxAttempts: 60}}},
			{Label: "coin-flip", Cfg: TrialConfig{Capture: medium.CoinFlip{P: 0.35}, Injector: injectable.InjectorConfig{MaxAttempts: 60}}},
		},
	},
	{
		// The slave-SCA assumption of the widening estimate (DESIGN.md
		// §4.2). MaxLead is opened up so the estimate alone decides the
		// firing instant: too large fires before the window opens, too
		// small starts late and collides longer.
		name: "ablation-sca", id: "ablation-sca",
		title:  "assumed slave SCA (ppm) vs injection attempts",
		xlabel: "assumedPPM",
		notes: []string{
			"paper §V-C assumes 20 ppm, 'the worst case from the attacker's perspective';",
			"over-estimating the slave's SCA fires before its window opens until the guard adapts",
		},
		offset: 50000,
		points: []SweepPoint{
			{Label: "5", Cfg: TrialConfig{Injector: injectable.InjectorConfig{AssumedSlavePPM: 5, MaxLead: sim.Millisecond}}},
			{Label: "20", Cfg: TrialConfig{Injector: injectable.InjectorConfig{AssumedSlavePPM: 20, MaxLead: sim.Millisecond}}},
			{Label: "50", Cfg: TrialConfig{Injector: injectable.InjectorConfig{AssumedSlavePPM: 50, MaxLead: sim.Millisecond}}},
			{Label: "100", Cfg: TrialConfig{Injector: injectable.InjectorConfig{AssumedSlavePPM: 100, MaxLead: sim.Millisecond}}},
			{Label: "250", Cfg: TrialConfig{Injector: injectable.InjectorConfig{AssumedSlavePPM: 250, MaxLead: sim.Millisecond}}},
		},
	},
	{
		// Firing at the window start (the attack's choice) against firing
		// at the predicted anchor, racing the master head-on (DESIGN.md
		// §4.3).
		name: "ablation-timing", id: "ablation-timing",
		title:  "injection instant vs attempts (window start vs predicted anchor)",
		xlabel: "instant",
		offset: 60000,
		points: []SweepPoint{
			{Label: "window-start", Cfg: TrialConfig{Injector: injectable.InjectorConfig{MaxAttempts: 60}}},
			{Label: "anchor-center", Cfg: TrialConfig{Injector: injectable.InjectorConfig{InjectAtWindowCenter: true, MaxAttempts: 60}}},
		},
	},
	{
		// The eq. 7 success heuristic against simulator ground truth
		// (DESIGN.md §4.4), at 4× the usual volume: HeuristicValidation.
		name: "heuristic", id: "heuristic-validation",
		title:  "eq. 7 success-heuristic validation against ground truth",
		notes:  []string{"the paper validates the ±5 µs timing check empirically (§V-D); so do we"},
		offset: 70000,
		trials: 4,
		points: []SweepPoint{{Label: "heuristic", Cfg: TrialConfig{Payload: PayloadColor}}},
	},
	{
		// The injector's guard adaptation: with the widening deliberately
		// over-estimated (250 ppm, lead cap open) the attacker fires before
		// the slave's window opens; the adaptive guard walks the firing
		// instant into the window, the frozen one keeps missing.
		name: "ablation-guard", id: "ablation-guard",
		title:  "adaptive guard vs frozen guard (assumed slave SCA 250 ppm)",
		xlabel: "guard",
		offset: 80000,
		points: []SweepPoint{
			{Label: "adaptive", Cfg: TrialConfig{Injector: injectable.InjectorConfig{
				AssumedSlavePPM: 250, MaxLead: sim.Millisecond, MaxAttempts: 60,
			}}},
			{Label: "frozen", Cfg: TrialConfig{Injector: injectable.InjectorConfig{
				AssumedSlavePPM: 250, MaxLead: sim.Millisecond, MaxAttempts: 60, DisableAdaptiveGuard: true,
			}}},
		},
	},
	{
		// exp2's payloads with and without the attacker, forked from one
		// snapshot: ExperimentCounterfactual.
		name: "counterfactual", id: "counterfactual",
		title:  "attacker-on vs attacker-off from one snapshot",
		xlabel: "payload",
		notes: []string{
			"both arms fork the same warmed snapshot with the same randomness;",
			"causal = effect observed with the attack and absent without it",
		},
		offset: 90000,
		points: payloadPoints,
		build:  counterfactualSpec,
	},
}

// sweepEntry returns the catalog entry named name, or nil.
func sweepEntry(name string) *catalogEntry {
	for i := range catalog {
		if catalog[i].name == name {
			return &catalog[i]
		}
	}
	return nil
}

// catalogSweep resolves a sweep name and lays out its points for opts,
// whose defaults it applies. Only opts' point range is laid out, with
// absolute seed bases, so its trials are bit-identical to the same points
// inside a full run.
func catalogSweep(name string, opts *Options) (*catalogEntry, []SweepPoint, error) {
	e := sweepEntry(name)
	if e == nil {
		return nil, nil, fmt.Errorf("experiments: unknown sweep %q", name)
	}
	opts.applyDefaults()
	src, err := SlicePoints(name, e.points, opts.PointStart, opts.PointCount)
	if err != nil {
		return nil, nil, err
	}
	pts := make([]SweepPoint, len(src))
	for i, p := range src {
		p.SeedBase = opts.SeedBase + e.offset + uint64(opts.PointStart+i)*1000
		p.Trials = opts.TrialsPerPoint * e.trials
		pts[i] = p
	}
	return e, pts, nil
}

// SweepNames lists the servable sweeps in sorted order.
func SweepNames() []string {
	names := make([]string, len(catalog))
	for i := range catalog {
		names[i] = catalog[i].name
	}
	sort.Strings(names)
	return names
}

// SweepSpec builds the campaign spec for a named sweep: the campaign
// RunSweep (or ExperimentCounterfactual) runs, so executing it with a
// campaign runner reproduces the CLI's per-trial results exactly.
func SweepSpec(name string, opts Options) (*campaign.Spec, error) {
	e, pts, err := catalogSweep(name, &opts)
	if err != nil {
		return nil, err
	}
	if e.build != nil {
		return e.build(opts, e.id, pts), nil
	}
	return BuildSweep(opts, e.id, pts), nil
}

// RunSweep runs a named sweep as one campaign and collates it per point
// under the entry's title, x-label and notes. The counterfactual is
// refused: its trials return CounterfactualOutcome values, which
// ExperimentCounterfactual collates.
func RunSweep(name string, opts Options) (*Experiment, error) {
	e, pts, err := catalogSweep(name, &opts)
	if err != nil {
		return nil, err
	}
	if e.build != nil {
		return nil, fmt.Errorf("experiments: sweep %q does not return trial results", name)
	}
	points, err := RunSweepPoints(opts, e.id, pts)
	if err != nil {
		return nil, err
	}
	return &Experiment{ID: e.id, Title: e.title, XLabel: e.xlabel, Notes: e.notes, Points: points}, nil
}

// HeuristicValidation measures the success heuristic (eq. 7) against
// simulator ground truth across many trials (DESIGN.md §4.4).
func HeuristicValidation(opts Options) (*Table, error) {
	exp, err := RunSweep("heuristic", opts)
	if err != nil {
		return nil, err
	}
	tally := exp.Points[0].Series.Heuristic
	total := tally.Agree + tally.Disagree
	return &Table{
		Title:  exp.Title,
		Header: []string{"trials", "agree", "disagree", "accuracy"},
		Rows: [][]string{{
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", tally.Agree),
			fmt.Sprintf("%d", tally.Disagree),
			fmt.Sprintf("%.1f%%", 100*float64(tally.Agree)/float64(total)),
		}},
		Notes: exp.Notes,
	}, nil
}
