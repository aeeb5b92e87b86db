package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
)

// fig9-catalog is the researcher's path to the paper's figure: a closed
// loop of in-process campaign.Runner runs with 2 workers over the four
// Fig. 9 catalog sweeps (exp1, exp2, exp3, exp3wall) built by
// experiments.SweepSpec at the default 25 trials per point, one Run per
// sweep as `experiments -run expN -parallel 2` does. Warmup is the
// default, so every trial builds, warms and races its own world under the
// 120 s default budget: world build, the 3 s warm phase and the long race
// dominate. Snapshot/fork, rekey, serving, codec and fabric are absent, so
// this is the control on which a fork-path or serving change must not
// move.
//
// A repetition is the whole figure, its four sweeps in turn, at one seed
// base derived from the workload seed, and the loop stops only between
// repetitions: every run weighs the same 500 trials equally, however many
// repetitions fit. A short operation is one trial; a long one is one
// point, the paper's 25 injections at one value, from its first trial's
// start to its last trial's end.
var catalogWorkload = workload{
	name:     "fig9-catalog",
	shape:    loadShape{generators: 1, runners: catalogWorkers},
	headline: "trials_per_s",
	aliases: [][2]string{
		{"trial_p50_ms", "short_p50_ms"}, {"trial_p99_ms", "short_p99_ms"},
		{"point_p50_ms", "long_p50_ms"}, {"point_p90_ms", "long_p90_ms"},
	},
	setup: newCatalog,
}

const (
	catalogWorkers = 2
	// catalogSimSeconds is one default trial's simulated time: the 3 s
	// warm phase plus the 120 s budget.
	catalogSimSeconds = 123
)

var catalogSweeps = []string{"exp1", "exp2", "exp3", "exp3wall"}

// catalogSeedBase derives the run's seed base from the workload seed; the
// catalog's per-study offsets span 34000 seeds.
func catalogSeedBase(seed uint64) uint64 { return 1000 + seed*100_000 }

type catalog struct {
	specs    []*campaign.Spec // one per sweep, exp1 first
	first    [][]byte         // each sweep's stream from its first timed run
	verified bool             // first has been compared with Workers: 1 runs
	util     []float64        // traced runs' campaign utilization
}

func newCatalog(seed uint64) (instance, error) {
	c := &catalog{first: make([][]byte, len(catalogSweeps))}
	for _, name := range catalogSweeps {
		spec, err := experiments.SweepSpec(name, experiments.Options{SeedBase: catalogSeedBase(seed)})
		if err != nil {
			return nil, err
		}
		c.specs = append(c.specs, spec)
	}
	// The untimed operation: one run of exp1, which grows the heap and
	// runs every trial code path the loop reuses.
	out, err := (&campaign.Runner{Workers: catalogWorkers}).Run(c.specs[0])
	if err != nil {
		return nil, err
	}
	s := outcomeStream(c.specs[0], out)
	if err := checkCatalogStream(s, s, true); err != nil {
		return nil, fmt.Errorf("untimed run: %w", err)
	}
	return c, nil
}

// outcomeStream renders a campaign outcome as its deterministic binary
// stream (what a NewBinary sink would have written).
func outcomeStream(spec *campaign.Spec, out *campaign.Outcome) []byte {
	recs := make([]campaign.Record, len(out.Results))
	var tl campaign.StreamTallies
	for i, r := range out.Results {
		recs[i] = campaign.NewRecord(r)
		tl.Trials++
		if r.Err == nil {
			tl.OK++
		} else {
			tl.Failed++
		}
	}
	info := campaign.StreamInfo{Name: spec.Name, SeedBase: spec.SeedBase, Points: len(spec.Points), Trials: spec.TotalTrials()}
	return campaign.EncodeBinary(info, recs, tl)
}

// checkCatalogStream is fig9-catalog's output check: a sweep's stream
// decodes with every CRC valid and no failed trial, equals ref byte for
// byte and, for exp1 (allSucceed), every trial succeeded: the paper's
// 100%.
func checkCatalogStream(got, ref []byte, allSucceed bool) error {
	var bad error
	_, tl, err := campaign.ScanBinary(got, func(rec campaign.Record) error {
		if !allSucceed || bad != nil {
			return nil
		}
		var v experiments.TrialResult
		if err := json.Unmarshal(rec.Value, &v); err != nil || !rec.OK || !v.Success {
			bad = fmt.Errorf("exp1 point %s trial %d did not succeed", rec.Point, rec.Trial)
		}
		return nil
	})
	switch {
	case err != nil:
		return err
	case tl.Failed != 0:
		return fmt.Errorf("%d of %d trials failed", tl.Failed, tl.Trials)
	case bad != nil:
		return bad
	case !bytes.Equal(got, ref):
		return errors.New("results differ from the sweep's first run")
	}
	return nil
}

func (c *catalog) run(until time.Time, tr *tracer) *tally {
	t := &tally{}
	start := time.Now()
	for rep := 0; time.Now().Before(until) || (tr == nil && !t.enough()); rep++ {
		for i := range c.specs {
			c.sweep(t, tr, rep, i)
		}
	}
	t.elapsed = time.Since(start)
	c.verify(t)
	return t
}

// sweep runs and checks one sweep of the figure. Each sweep's first run
// is the stream its later runs must equal.
func (c *catalog) sweep(t *tally, tr *tracer, rep, i int) {
	var clock pointClock
	spec := clock.wrap(c.specs[i])
	id := tr.nextID(spec.Name)
	if tr != nil {
		spec = wrapPoints(spec, tr, id, "experiments.RunTrial")
	}
	t0 := time.Now()
	out, err := (&campaign.Runner{Workers: catalogWorkers}).Run(spec)
	tr.span("campaign.Runner.Run", id, "", fmt.Sprintf("rep %d %s", rep, spec.Name), t0)
	t.attempted++
	if err != nil {
		t.fail("%s: %v", spec.Name, err)
		return
	}
	t.done(len(out.Results))
	t.long = append(t.long, clock.spansMS()...)
	for _, r := range out.Results {
		t.attempted++
		t.short = append(t.short, ms(r.Elapsed))
		if r.Err != nil {
			t.fail("trial %s/%d: %v", r.Point, r.Index, r.Err)
		}
	}
	checked(func() {
		got, ref := outcomeStream(spec, out), c.first[i]
		if ref == nil {
			ref = got
		}
		if err := checkCatalogStream(got, ref, i == 0); err != nil {
			t.fail("repetition %d %s: %v", rep, spec.Name, err)
		} else if c.first[i] == nil {
			c.first[i] = got
		}
	})
	if tr != nil {
		c.util = append(c.util, out.Metrics.Utilization())
	}
}

// verify compares each sweep's first stream with a Workers: 1 run of the
// same spec, once per instance and outside the timed loop: two serial
// runners, one per CPU, each take half the sweeps.
func (c *catalog) verify(t *tally) {
	if c.verified {
		return
	}
	c.verified = true
	refs := make([][]byte, len(c.specs))
	errs := make([]error, len(c.specs))
	half := len(c.specs) / catalogWorkers
	collect(catalogWorkers, func(w int) {
		for i := w * half; i < (w+1)*half; i++ {
			out, err := (&campaign.Runner{Workers: 1}).Run(c.specs[i])
			if err != nil {
				errs[i] = err
				continue
			}
			refs[i] = outcomeStream(c.specs[i], out)
		}
	})
	for i, spec := range c.specs {
		t.attempted++
		switch {
		case errs[i] != nil:
			t.fail("%s, Workers: 1: %v", spec.Name, errs[i])
		case c.first[i] == nil:
			t.fail("%s: no checked run to compare with the Workers: 1 run", spec.Name)
		case !bytes.Equal(c.first[i], refs[i]):
			t.fail("%s: results differ from the Workers: 1 run", spec.Name)
		}
	}
}

func (c *catalog) layers(tr *tracer, m map[string]float64) error {
	if err := spanMedians(tr, m, map[string]string{"experiments.run_trial_ms": "experiments.RunTrial"}); err != nil {
		return err
	}
	m["sim.host_us_per_sim_s"] = usPerSimSecond(tr.named("experiments.RunTrial"), catalogSimSeconds)
	m["campaign.utilization"] = median(c.util)

	// Simulated statistics: one more run of the figure, with per-trial
	// hubs.
	all := &campaign.Outcome{}
	for _, spec := range c.specs {
		out, err := (&campaign.Runner{Workers: catalogWorkers, CollectObs: true}).Run(spec)
		if err != nil {
			return err
		}
		all.Results = append(all.Results, out.Results...)
	}
	simStats(all, m)
	return nil
}

func (c *catalog) close() {}

// pointClock records, for each point of one campaign run, when its first
// trial started and when its last trial ended. Its cost, two clock reads
// per trial, is far below a trial's.
type pointClock struct {
	mu         sync.Mutex
	start, end []time.Time
}

// wrap returns a copy of spec whose points' Run calls report to the
// clock.
func (p *pointClock) wrap(spec *campaign.Spec) *campaign.Spec {
	n := len(spec.Points)
	p.start, p.end = make([]time.Time, n), make([]time.Time, n)
	s := *spec
	s.Points = append([]campaign.Point(nil), spec.Points...)
	for i := range s.Points {
		run := s.Points[i].Run
		s.Points[i].Run = func(t campaign.Trial) (any, error) {
			start := time.Now()
			v, err := run(t)
			end := time.Now()
			p.mu.Lock()
			if p.start[i].IsZero() || start.Before(p.start[i]) {
				p.start[i] = start
			}
			if end.After(p.end[i]) {
				p.end[i] = end
			}
			p.mu.Unlock()
			return v, err
		}
	}
	return &s
}

// spansMS returns each point's span, first start to last end, in
// milliseconds.
func (p *pointClock) spansMS() []float64 {
	out := make([]float64, len(p.start))
	for i := range out {
		out[i] = ms(p.end[i].Sub(p.start[i]))
	}
	return out
}
