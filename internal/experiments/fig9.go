package experiments

import (
	"fmt"
	"io"

	"injectable/internal/phy"
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
	// point. Only SweepSpec and ScenarioSpec honor the range; the
	// Experiment* table entry points always run the full study.
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

// trianglePositions places bulb, central and attacker on the paper's
// equilateral triangle with 2 m edges (Fig. 8 left).
func trianglePositions() (bulb, central, attacker phy.Position) {
	return phy.Position{X: 0, Y: 0}, phy.Position{X: 2, Y: 0}, phy.Position{X: 1, Y: 1.732}
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

// Experiment1HopInterval reproduces Fig. 9, experiment 1: attempts before
// a successful injection vs Hop Interval ∈ {25,50,75,100,125,150}, on the
// 2 m equilateral triangle, injecting the 22-byte turn-off frame.
//
// Expected shape (paper §VII-A): success for every connection; variance
// shrinking as the interval grows from 25 to 100 and stabilising; medians
// below ≈4.
func Experiment1HopInterval(opts Options) (*Experiment, error) {
	opts.applyDefaults()
	exp := &Experiment{
		ID:     "fig9-exp1",
		Title:  "attempts before successful injection vs Hop Interval",
		XLabel: "hopInterval",
		Notes: []string{
			"paper: injection always succeeds; variance decreases 25→100 then stabilises; median < 4",
		},
	}
	points, err := runSweep(opts, exp.ID, exp1Points(opts))
	if err != nil {
		return nil, err
	}
	exp.Points = points
	return exp, nil
}

// exp1Points builds experiment 1's sweep: Hop Interval ∈ {25..150} on the
// triangle, preserving the historical per-point seed bases.
func exp1Points(opts Options) []SweepPoint {
	bulb, central, attacker := trianglePositions()
	var pts []SweepPoint
	for i, interval := range []uint16{25, 50, 75, 100, 125, 150} {
		pts = append(pts, SweepPoint{
			Label:    fmt.Sprintf("%d", interval),
			SeedBase: opts.SeedBase + uint64(i)*1000,
			Cfg: TrialConfig{
				Interval:    interval,
				Payload:     PayloadPowerOff,
				BulbPos:     bulb,
				CentralPos:  central,
				AttackerPos: attacker,
			},
		})
	}
	return pts
}

// Experiment2PayloadSize reproduces Fig. 9, experiment 2: attempts vs the
// injected frame's PDU size ∈ {4,9,14,16} bytes at Hop Interval 75.
//
// Expected shape (paper §VII-B): higher reliability as the payload
// shrinks; medians below ≈3.
func Experiment2PayloadSize(opts Options) (*Experiment, error) {
	opts.applyDefaults()
	exp := &Experiment{
		ID:     "fig9-exp2",
		Title:  "attempts before successful injection vs payload size (Hop Interval 75)",
		XLabel: "payload",
		Notes: []string{
			"paper: reliability increases as payload shrinks (smaller collision overlap); median < 3",
		},
	}
	points, err := runSweep(opts, exp.ID, exp2Points(opts))
	if err != nil {
		return nil, err
	}
	exp.Points = points
	return exp, nil
}

// exp2Points builds experiment 2's sweep: payload size at Hop Interval 75.
func exp2Points(opts Options) []SweepPoint {
	bulb, central, attacker := trianglePositions()
	var pts []SweepPoint
	for i, payload := range []Payload{PayloadTerminate, PayloadToggle, PayloadPowerOff, PayloadColor} {
		pts = append(pts, SweepPoint{
			Label:    payload.String(),
			SeedBase: opts.SeedBase + 10000 + uint64(i)*1000,
			Cfg: TrialConfig{
				Interval:    75,
				Payload:     payload,
				BulbPos:     bulb,
				CentralPos:  central,
				AttackerPos: attacker,
			},
		})
	}
	return pts
}

// distancePositions places the attacker d metres from the bulb, on the
// opposite side of the phone (Fig. 8 right: positions A–F).
func distancePositions(d float64) (bulb, central, attacker phy.Position) {
	return phy.Position{X: 0, Y: 0}, phy.Position{X: 2, Y: 0}, phy.Position{X: -d, Y: 0}
}

// Experiment3Distance reproduces Fig. 9, experiment 3: attempts vs the
// attacker–peripheral distance ∈ {1,2,4,6,8,10} m, with a smartphone
// central 2 m away at its default Hop Interval 36 and the 22-byte frame.
//
// Expected shape (paper §VII-C): attempts and variance grow with distance,
// yet every connection is eventually injected — even at 10 m when the
// master sits at 2 m.
func Experiment3Distance(opts Options) (*Experiment, error) {
	opts.applyDefaults()
	exp := &Experiment{
		ID:     "fig9-exp3",
		Title:  "attempts before successful injection vs attacker distance (smartphone master)",
		XLabel: "distance",
		Notes: []string{
			"paper: variance increases with distance; injection still succeeds from every position (A–F)",
		},
	}
	points, err := runSweep(opts, exp.ID, exp3Points(opts))
	if err != nil {
		return nil, err
	}
	exp.Points = points
	return exp, nil
}

// exp3Points builds experiment 3's sweep: attacker distance, positions A–F.
func exp3Points(opts Options) []SweepPoint {
	positions := []struct {
		label string
		d     float64
	}{
		{"A:1m", 1}, {"B:2m", 2}, {"C:4m", 4}, {"D:6m", 6}, {"E:8m", 8}, {"F:10m", 10},
	}
	var pts []SweepPoint
	for i, p := range positions {
		bulb, central, attacker := distancePositions(p.d)
		pts = append(pts, SweepPoint{
			Label:    p.label,
			SeedBase: opts.SeedBase + 20000 + uint64(i)*1000,
			Cfg: TrialConfig{
				Interval:    36,
				Payload:     PayloadPowerOff,
				BulbPos:     bulb,
				CentralPos:  central,
				AttackerPos: attacker,
				PhoneGrade:  true,
			},
		})
	}
	return pts
}

// Experiment3Wall reproduces Fig. 9, experiment 3 (wall variant):
// attacker behind an interior wall at {2,4,6,8} m.
//
// Expected shape (paper §VII-C): the wall costs extra attempts and the
// variance grows with distance, but every connection is still injectable.
func Experiment3Wall(opts Options) (*Experiment, error) {
	opts.applyDefaults()
	exp := &Experiment{
		ID:     "fig9-exp3wall",
		Title:  "attempts before successful injection vs distance behind a wall",
		XLabel: "distance",
		Notes: []string{
			"paper: more attempts than open air at the same distance; still succeeds in the worst case",
		},
	}
	points, err := runSweep(opts, exp.ID, exp3WallPoints(opts))
	if err != nil {
		return nil, err
	}
	exp.Points = points
	return exp, nil
}

// exp3WallPoints builds the wall variant of experiment 3.
func exp3WallPoints(opts Options) []SweepPoint {
	var pts []SweepPoint
	for i, d := range []float64{2, 4, 6, 8} {
		bulb, central, attacker := distancePositions(d)
		wall := phy.Wall{
			A:    phy.Position{X: -0.5, Y: -10},
			B:    phy.Position{X: -0.5, Y: 10},
			Loss: phy.DefaultWallLoss,
		}
		pts = append(pts, SweepPoint{
			Label:    fmt.Sprintf("%gm+wall", d),
			SeedBase: opts.SeedBase + 30000 + uint64(i)*1000,
			Cfg: TrialConfig{
				Interval:    36,
				Payload:     PayloadPowerOff,
				BulbPos:     bulb,
				CentralPos:  central,
				AttackerPos: attacker,
				Walls:       []phy.Wall{wall},
				PhoneGrade:  true,
			},
		})
	}
	return pts
}

// progress is a nil-safe progress call.
func (o *Options) progress(point string, trial int) {
	if o.Progress != nil {
		o.Progress(point, trial)
	}
}
