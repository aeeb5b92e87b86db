package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/fabric"
	"injectable/internal/obs"
	"injectable/internal/scenario"
	"injectable/internal/serve"
)

// fleet-fork is the ROADMAP's job critical path: queue → warm → fork × N
// → encode → stream → shard merge. A closed loop plans one inline
// scenario spec with fabric.PlanShards (one point per shard) and runs it
// with fabric.Run over two in-process worker daemons on loopback, each
// with one job slot and one trial worker, under warmup "shared". Every
// repetition uses a fresh seed base, so no shard is a cache hit. The spec
// keeps BenchmarkTrialForked's race — hop interval 36, 40 attempts — so
// World.Fork and World.RekeyStreams are a large share of each trial;
// fig9-catalog runs neither. The attacker walks away from the victim the
// way exp3 sweeps distance, over the near positions (0.5 m to 2 m).
//
// The budget is 6 simulated seconds, not BenchmarkTrialForked's 2: about
// one forked trial in 15000 inherits a link that drops right after the
// snapshot, and its first attempt only settles (on the connection loss)
// after 2 s; such a trial fails with "injection did not settle". At 4 s
// one trial in about 400000 still failed (workload seed 405, repetition
// 247, 2m, trial 15: it settles after 7 attempts, past 4 s but within
// 6 s). A longer budget would leave a run too few shards for their p99.
//
// A short operation is one shard, a long one the whole sharded campaign,
// planning included.
var fleetWorkload = workload{
	name:     "fleet-fork",
	shape:    loadShape{generators: fleetDaemons, connections: fleetDaemons, daemons: [][2]int{{1, 1}, {1, 1}}},
	headline: "trials_per_s",
	aliases: [][2]string{
		{"shard_p50_ms", "short_p50_ms"}, {"shard_p99_ms", "short_p99_ms"},
		{"campaign_p50_ms", "long_p50_ms"}, {"campaign_p90_ms", "long_p90_ms"},
	},
	setup: newFleet,
}

const fleetSpecJSON = `{
  "version": 1,
  "name": "fleet-fork",
  "conn": {"interval": 36},
  "attacker": {"max_attempts": 40},
  "run": {"sim_seconds": 6},
  "sweep": [
    {"field": "attacker.pos.x", "values": [-0.5, -0.75, -1, -1.25, -1.5, -2],
     "labels": ["0.5m", "0.75m", "1m", "1.25m", "1.5m", "2m"]}
  ]
}`

const (
	// fleetDaemons worker daemons; the coordinator runs one dispatch
	// goroutine and one connection per worker.
	fleetDaemons = 2
	// fleetTrials is the paper's 25 injections per value.
	fleetTrials = 25
	// fleetRaceSeconds is one forked trial's simulated time (the warm
	// phase runs once per shard, not per trial).
	fleetRaceSeconds = 6
	// fleetProbeRep is the repetition index of the traced run's fixed
	// in-process replays: far beyond any timed repetition, so their seed
	// bases never collide and their simulated statistics repeat exactly.
	fleetProbeRep = 90_000
)

// fleetSeedBase gives repetition rep its own seed range; one campaign
// spans 6 points × 1000 seeds.
func fleetSeedBase(seed uint64, rep int) uint64 {
	return 1_000_000 + seed*1_000_000_000 + uint64(rep)*10_000
}

type fleet struct {
	seed    uint64
	raw     []byte
	spec    scenario.Spec
	workers []*daemon
	feeds   []*hubFeed
	urls    []string
	rt      *timingTransport
	httpc   *http.Client
	reg     *serve.Registry
	rep     int    // next repetition index
	last    []byte // the last merged stream

	// traced-run totals
	dispatchUS, makespanUS int64
	dispatched, retried    int
	campaigns              int
}

func newFleet(seed uint64) (instance, error) {
	f := &fleet{seed: seed, raw: []byte(fleetSpecJSON), reg: serve.DefaultRegistry(), rt: &timingTransport{base: newTransport()}}
	f.httpc = &http.Client{Transport: f.rt}
	sp, err := scenario.DecodeSpec(f.raw)
	if err != nil {
		return nil, err
	}
	f.spec = sp
	for i := 0; i < fleetDaemons; i++ {
		d, err := startDaemon(serve.Config{JobWorkers: 1, TrialWorkers: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, d)
		f.urls = append(f.urls, d.url)
		f.feeds = append(f.feeds, &hubFeed{lane: "worker-" + strconv.Itoa(i+1), log: d.hub.Spans()})
	}
	if err := f.untimed(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// untimed runs the set-up repetition and checks that its merged bytes
// equal an in-process campaign.Runner run of the same compiled spec.
func (f *fleet) untimed() error {
	base := fleetSeedBase(f.seed, f.rep)
	t := f.campaign(nil)
	if t.failed > 0 {
		return fmt.Errorf("untimed repetition: %s", t.failures[0])
	}
	cs, err := scenario.Compile(f.spec, f.options(base))
	if err != nil {
		return err
	}
	var local bytes.Buffer
	sink := campaign.NewBinary(&local)
	if _, err := (&campaign.Runner{Workers: fleetDaemons, Sinks: []campaign.Sink{sink}}).Run(cs); err != nil {
		return err
	}
	if !bytes.Equal(f.last, local.Bytes()) {
		return errors.New("merged stream differs from the in-process run of the same spec")
	}
	return nil
}

func (f *fleet) options(base uint64) experiments.Options {
	return experiments.Options{TrialsPerPoint: fleetTrials, SeedBase: base, Warmup: experiments.WarmupShared}
}

func (f *fleet) job(base uint64) (serve.JobSpec, error) {
	return serve.ScenarioJobSpec(f.raw, serve.JobSpec{Trials: fleetTrials, SeedBase: base, Warmup: experiments.WarmupShared})
}

// campaign plans and runs one repetition at a fresh seed base and checks
// it. It returns the repetition's tally; the merged stream is kept in
// f.last.
func (f *fleet) campaign(tr *tracer) *tally {
	t := &tally{attempted: 1}
	rep := f.rep
	f.rep++
	req := "rep " + strconv.Itoa(rep)
	id, runID := tr.nextID("campaign"), tr.nextID("fabric.Run")
	t0 := time.Now()
	job, err := f.job(fleetSeedBase(f.seed, rep))
	if err != nil {
		t.fail("job spec: %v", err)
		return t
	}
	plan, err := fabric.PlanShards(f.reg, job, 0)
	if err != nil {
		t.fail("plan: %v", err)
		return t
	}
	tr.span("fabric.PlanShards", tr.nextID("plan"), id, req, t0)
	t1 := time.Now()
	hub := obs.NewHub()
	var merged bytes.Buffer
	rpt, err := fabric.Run(context.Background(), fabric.Config{
		Workers: f.urls, HTTP: f.httpc, Hub: hub, Format: serve.FormatBinary,
	}, plan, &merged)
	d := time.Since(t0)
	tr.span("fabric.Run", runID, id, req, t1, "trace", plan.Key)
	tr.span("campaign", id, "", req, t0)
	exs := f.rt.drain()
	if err != nil {
		t.fail("fabric run: %v", err)
		return t
	}
	t.done(plan.Trials)
	f.last = merged.Bytes()
	t.long = append(t.long, ms(d))
	for _, ex := range exs {
		t.attempted++
		t.short = append(t.short, ms(ex.latency))
		if ex.status != http.StatusOK || ex.cache != "miss" {
			t.fail("shard on %s: status %d, X-Cache %q (want 200, miss)", ex.host, ex.status, ex.cache)
		}
	}
	checked(func() {
		if err := checkMergedStream(f.last, plan.Trials); err != nil {
			t.fail("repetition %d: %v", rep, err)
		}
		if rpt.Dispatched != len(plan.Shards) || rpt.Retried != 0 || rpt.WorkersLost != 0 {
			t.fail("repetition %d: dispatched %d of %d shards, retried %d, workers lost %d",
				rep, rpt.Dispatched, len(plan.Shards), rpt.Retried, rpt.WorkersLost)
		}
	})
	if tr == nil {
		return t
	}
	// The coordinator's own spans (dispatch, stream, validate, merge)
	// and the workers' (queue, run) join the trace under fabric.Run.
	link := func(lane string) func(*obs.Span) {
		return func(s *obs.Span) {
			setArg(s, "id", tr.nextID(lane+"/"+s.Name))
			setArg(s, "parent", runID)
			if v, ok := s.Args["shard"]; ok {
				setArg(s, "req", "shard "+v)
			} else {
				setArg(s, "req", "job "+s.Args["job"])
			}
		}
	}
	coord := hub.Spans().Snapshot()
	for i := range coord {
		link("coordinator")(&coord[i])
		if coord[i].Name == "dispatch" {
			f.dispatchUS += coord[i].DurUS
		}
	}
	tr.add("coordinator", coord...)
	for _, feed := range f.feeds {
		feed.poll(tr, link(feed.lane))
	}
	f.makespanUS += d.Microseconds()
	f.dispatched += rpt.Dispatched
	f.retried += rpt.Retried
	f.campaigns++
	return t
}

// checkMergedStream is fleet-fork's stream check: the merged stream
// decodes with every CRC valid, and its trailer counts the plan's trials
// with none failed.
func checkMergedStream(merged []byte, trials int) error {
	n := 0
	var firstErr string
	_, tl, err := campaign.ScanBinary(merged, func(rec campaign.Record) error {
		n++
		if !rec.OK && firstErr == "" {
			firstErr = fmt.Sprintf("%s trial %d (seed %d): %s", rec.Point, rec.Trial, rec.Seed, rec.Err)
		}
		return nil
	})
	switch {
	case err != nil:
		return err
	case n != trials || tl.Trials != trials:
		return fmt.Errorf("merged stream holds %d records, trailer %d trials, plan %d", n, tl.Trials, trials)
	case tl.Failed != 0:
		return fmt.Errorf("%d of %d trials failed, first %s", tl.Failed, tl.Trials, firstErr)
	}
	return nil
}

func (f *fleet) run(until time.Time, tr *tracer) *tally {
	if tr != nil {
		for _, feed := range f.feeds {
			feed.skip()
		}
	}
	t := &tally{}
	start := time.Now()
	for time.Now().Before(until) || (tr == nil && !t.enough()) {
		t.merge(f.campaign(tr))
	}
	t.elapsed = time.Since(start)
	return t
}

func (f *fleet) layers(tr *tracer, m map[string]float64) error {
	dispatch := durationsMS(tr.named("dispatch"))
	for _, p := range []struct {
		metric string
		pct    int
	}{{"fabric.shard_p50_ms", 50}, {"fabric.shard_p90_ms", 90}} {
		v, err := percentile(dispatch, p.pct)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		m[p.metric] = v
	}
	if err := spanMedians(tr, m, map[string]string{
		"fabric.validate_us": "validate", "serve.queue_wait_ms": "queue", "serve.run_ms": "run",
	}); err != nil {
		return err
	}
	if f.campaigns > 0 {
		m["fabric.worker_idle_share"] = 1 - float64(f.dispatchUS)/float64(fleetDaemons*f.makespanUS)
		m["fabric.dispatched"] = float64(f.dispatched) / float64(f.campaigns)
		m["fabric.retried"] = float64(f.retried) / float64(f.campaigns)
	}
	merge, err := timeOp(layerReps, func() error { return campaign.TranscodeBinaryToNDJSON(io.Discard, f.last) })
	if err != nil {
		return err
	}
	m["fabric.merge_us"] = us(merge)
	if err := streamLayers(f.last, m); err != nil {
		return err
	}
	if err := scenarioLayers([][]byte{f.raw}, fleetTrials, m); err != nil {
		return err
	}
	job, err := f.job(fleetSeedBase(f.seed, fleetProbeRep))
	if err != nil {
		return err
	}
	plan, err := timeOp(layerReps, func() error { _, err := fabric.PlanShards(f.reg, job, 0); return err })
	if err != nil {
		return err
	}
	m["fabric.plan_us"] = us(plan)
	if err := f.submitHit(m); err != nil {
		return err
	}
	return f.replay(tr, m)
}

// submitHit times an in-process Server.Submit of a shard spec the worker
// has already completed (a cache hit).
func (f *fleet) submitHit(m map[string]float64) error {
	job, err := f.job(fleetSeedBase(f.seed, fleetProbeRep+3))
	if err != nil {
		return err
	}
	plan, err := fabric.PlanShards(f.reg, job, 0)
	if err != nil {
		return err
	}
	shard := plan.Shards[0].Spec
	w := f.workers[0]
	if _, err := (&serve.Client{Base: w.url, HTTP: f.httpc}).RunBinary(context.Background(), shard); err != nil {
		return err
	}
	f.rt.drain()
	d, err := timeOp(layerReps, func() error {
		_, disp, err := w.srv.Submit(shard)
		if err == nil && disp != "hit" {
			err = fmt.Errorf("submit of a completed shard was a %s", disp)
		}
		return err
	})
	m["serve.submit_hit_us"] = us(d)
	return err
}

// replay runs the fleet spec in-process, compiled with scenario.Compile,
// with Point.Warmup (NewWarmTrial) and Point.Run (RunFork) wrapped in
// spans and per-trial hubs collecting the simulated statistics. Three
// fixed seed bases give the warm-up median its twenty-plus samples (each
// worker warms each point it runs: up to 36).
func (f *fleet) replay(tr *tracer, m map[string]float64) error {
	var util []float64
	merged := &campaign.Outcome{}
	for i := 0; i < 3; i++ {
		cs, err := scenario.Compile(f.spec, f.options(fleetSeedBase(f.seed, fleetProbeRep+i)))
		if err != nil {
			return err
		}
		id := tr.nextID("replay")
		start := time.Now()
		out, err := (&campaign.Runner{Workers: fleetDaemons, CollectObs: true}).Run(wrapPoints(cs, tr, id, "experiments.RunFork"))
		tr.span("campaign.Runner.Run", id, "", "replay "+strconv.Itoa(i), start)
		if err != nil {
			return err
		}
		util = append(util, out.Metrics.Utilization())
		merged.Results = append(merged.Results, out.Results...)
	}
	simStats(merged, m)
	m["campaign.utilization"] = median(util)
	if err := spanMedians(tr, m, map[string]string{
		"experiments.warm_ms": "experiments.NewWarmTrial", "experiments.run_fork_ms": "experiments.RunFork",
	}); err != nil {
		return err
	}
	m["sim.host_us_per_sim_s"] = usPerSimSecond(tr.named("experiments.RunFork"), fleetRaceSeconds)
	return nil
}

func (f *fleet) close() {
	for _, d := range f.workers {
		d.close()
	}
	f.rt.base.CloseIdleConnections()
}
