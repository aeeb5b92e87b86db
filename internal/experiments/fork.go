package experiments

import (
	"context"

	"injectable/internal/host"
	"injectable/internal/obs"
	"injectable/internal/sim"
)

// This file is the fork-based trial fast path. A configuration's trials
// all begin the same way — build a world, establish the connection, let
// the sniffer synchronise — and only diverge once the injection race
// starts. WarmTrial pays that common prefix once, snapshots the world,
// and then forks each trial from the snapshot with trial-specific
// randomness: Fork restores the captured state in place and RekeyStreams
// reseeds every random stream from (its own identity, trial seed), so a
// forked trial is byte-identical to a fresh world warmed with the same
// warm seed and rekeyed the same way (RunTrialWarmFresh — the
// differential reference the determinism tests compare against).

// WarmTrialSeed derives the warm-world seed of a point whose trials use
// seeds base, base+1, … — a sibling stream that never collides with any
// trial's seed (or rekey salt, which is the trial seed itself).
func WarmTrialSeed(base uint64) uint64 {
	return sim.NewRNG(base).Child("warm").Seed()
}

// WarmTrial is a warmed, reusable trial environment: a world advanced
// through connection establishment and attacker sync, snapshotted at the
// moment the injection phase would begin. One WarmTrial serves any number
// of sequential trials on one goroutine (campaign workers hold one per
// point); it is not safe for concurrent use.
type WarmTrial struct {
	cfg  TrialConfig
	tw   *TrialWorld
	hub  *obs.Hub
	snap *host.Snapshot
}

// NewWarmTrial builds a world for cfg seeded with warmSeed (cfg.Seed is
// overridden), establishes the connection and snapshots. cfg.Obs is
// ignored: the warm world records into a private hub whose post-warm
// contents replay into every fork, and RunFork absorbs it into the
// per-trial sink — so each trial's observability is exactly what a
// self-warming trial would have recorded.
func NewWarmTrial(cfg TrialConfig, warmSeed uint64) (*WarmTrial, error) {
	cfg = cfg.WithDefaults()
	cfg.Seed = warmSeed
	hub := obs.NewHub()
	tw, err := BuildTrialWorld(cfg, Instrumentation{Obs: hub})
	if err != nil {
		return nil, err
	}
	if err := tw.warm(cfg); err != nil {
		return nil, err
	}
	wt := &WarmTrial{cfg: cfg, tw: tw, hub: hub}
	wt.snap = tw.W.Snapshot()
	return wt, nil
}

// RunFork runs one trial from the snapshot: restore, rekey every random
// stream with the trial seed, race the injection, absorb the world's
// private hub (warm-phase metrics and forensics included) into sink.
// sink may be nil (no observability). Any number of RunFork calls replay
// from the same snapshot; equal trial seeds give byte-identical results.
func (wt *WarmTrial) RunFork(trialSeed uint64, sink *obs.Hub, ctx context.Context) (TrialResult, error) {
	wt.tw.W.Fork(wt.snap)
	wt.tw.W.RekeyStreams(trialSeed)
	cfg := wt.cfg
	cfg.Ctx = ctx
	res, err := wt.tw.attack(cfg)
	sink.Absorb(wt.hub)
	return res, err
}

// RunTrialWarmFresh is the differential twin of the fork path on a fresh
// world: build with the warm seed, warm identically, rekey with the trial
// seed, attack. No snapshot is involved, so any divergence between this
// and (NewWarmTrial + RunFork) indicts the snapshot/restore machinery.
// cfg.Obs, when non-nil, receives the absorbed private hub like RunFork's
// sink does.
func RunTrialWarmFresh(cfg TrialConfig, warmSeed, trialSeed uint64) (TrialResult, error) {
	sink := cfg.Obs
	cfg = cfg.WithDefaults()
	cfg.Seed = warmSeed
	hub := obs.NewHub()
	tw, err := BuildTrialWorld(cfg, Instrumentation{Obs: hub})
	if err != nil {
		return TrialResult{}, err
	}
	if err := tw.warm(cfg); err != nil {
		return TrialResult{}, err
	}
	tw.W.RekeyStreams(trialSeed)
	res, err := tw.attack(cfg)
	sink.Absorb(hub)
	return res, err
}

// Forensics exposes the warm world's ledger records — the fork-side
// counterpart of a trial hub's ledger for differential comparison.
func (wt *WarmTrial) Forensics() []obs.InjectionRecord {
	return wt.hub.Led().Records()
}

// CounterfactualOutcome pairs one trial's two timelines — identical up to
// the instant the injection phase begins, one with the attack and one
// without. Because both arms fork the same snapshot and rekey with the
// same trial seed, every difference between them is caused by the
// injected traffic alone.
type CounterfactualOutcome struct {
	// Injected is the attack arm's result.
	Injected TrialResult
	// BaselineEffect reports the observable effect (bulb command applied,
	// or disconnect for the terminate payload) occurring in the attack-free
	// arm — a spontaneous effect the heuristic could falsely attribute.
	BaselineEffect bool
	// Causal: the effect appeared under injection and not in the baseline,
	// i.e. the attack demonstrably caused it.
	Causal bool
}

// RunCounterfactual runs the attack arm (exactly RunFork) and then the
// attack-free arm from the same snapshot with the same rekey, watching
// the same ground-truth observers over the same simulated span.
func (wt *WarmTrial) RunCounterfactual(trialSeed uint64, sink *obs.Hub, ctx context.Context) (CounterfactualOutcome, error) {
	injected, err := wt.RunFork(trialSeed, sink, ctx)
	if err != nil {
		return CounterfactualOutcome{}, err
	}

	// Baseline arm: same fork, same randomness, no injector.
	wt.tw.W.Fork(wt.snap)
	wt.tw.W.RekeyStreams(trialSeed)
	baseline := wt.tw.effectProbe(wt.cfg)
	if err := runFor(wt.tw.W, wt.cfg.SimBudget, ctx, nil); err != nil {
		return CounterfactualOutcome{}, err
	}
	return CounterfactualOutcome{
		Injected:       injected,
		BaselineEffect: baseline(),
		Causal:         injected.EffectObserved && !baseline(),
	}, nil
}
