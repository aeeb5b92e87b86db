package experiments

import (
	"context"
	"reflect"
	"testing"

	"injectable/internal/obs"
	"injectable/internal/sim"
)

// countingCtx counts Err calls so the tests can pin down exactly how many
// cancellation checks a runFor span performs.
type countingCtx struct {
	context.Context
	calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	return c.Context.Err()
}

// lateCancelCtx reports cancellation only from its nth Err call onward —
// a cancel racing the simulation mid-span.
type lateCancelCtx struct {
	context.Context
	calls    int
	cancelAt int
}

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

const runForSlice = 250 * sim.Millisecond

func TestRunForExactSliceChecksContextOnce(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	ctx := &countingCtx{Context: context.Background()}
	start := tw.W.Now()
	if err := runFor(tw.W, runForSlice, ctx, nil); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.W.Now() - start); got != runForSlice {
		t.Fatalf("advanced %v, want %v", got, runForSlice)
	}
	// d == slice is one slice, hence one check. The historical bug was a
	// second Err() consultation after the span completed, which failed
	// finished simulations whose caller canceled during the last slice.
	if ctx.calls != 1 {
		t.Fatalf("Err() called %d times for a one-slice span, want 1", ctx.calls)
	}
}

func TestRunForSlicePlusOneChecksContextTwice(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	ctx := &countingCtx{Context: context.Background()}
	d := runForSlice + 1 // one full slice plus a 1ns remainder
	start := tw.W.Now()
	if err := runFor(tw.W, d, ctx, nil); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.W.Now() - start); got != d {
		t.Fatalf("advanced %v, want %v", got, d)
	}
	if ctx.calls != 2 {
		t.Fatalf("Err() called %d times for a two-slice span, want 2", ctx.calls)
	}
}

func TestRunForCancelDuringFinalSliceStillSucceeds(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	// Cancellation becomes visible at the second check — after the only
	// slice of a d == slice span has already been simulated to completion.
	ctx := &lateCancelCtx{Context: context.Background(), cancelAt: 2}
	if err := runFor(tw.W, runForSlice, ctx, nil); err != nil {
		t.Fatalf("completed span failed with %v", err)
	}
}

func TestRunForCancelBeforeSecondSliceStopsEarly(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	ctx := &lateCancelCtx{Context: context.Background(), cancelAt: 2}
	start := tw.W.Now()
	err := runFor(tw.W, runForSlice+1, ctx, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := sim.Duration(tw.W.Now() - start); got != runForSlice {
		t.Fatalf("advanced %v before stopping, want exactly one slice (%v)", got, runForSlice)
	}
}

func TestRunForCanceledUpfrontAdvancesNothing(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := tw.W.Now()
	if err := runFor(tw.W, runForSlice, ctx, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tw.W.Now() != start {
		t.Fatal("canceled span advanced the world")
	}
}

func TestRunForNilContextRunsWhole(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	start := tw.W.Now()
	d := 3*runForSlice + 7
	if err := runFor(tw.W, d, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.W.Now() - start); got != d {
		t.Fatalf("advanced %v, want %v", got, d)
	}
}

// doneAfter reports true once the world has advanced at least d past
// start.
func doneAfter(tw *TrialWorld, start sim.Time, d sim.Duration) func() bool {
	return func() bool { return sim.Duration(tw.W.Now()-start) >= d }
}

func TestRunForDoneStopsAtFirstBoundaryAfter(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
		start := tw.W.Now()
		// done turns true 600 ms in, inside the third slice: the span ends
		// at that slice's boundary, not at 600 ms and not at d.
		if err := runFor(tw.W, 40*runForSlice, ctx, doneAfter(tw, start, 600*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if got := sim.Duration(tw.W.Now() - start); got != 3*runForSlice {
			t.Fatalf("ctx %v: advanced %v, want %v", ctx, got, 3*runForSlice)
		}
	}
}

func TestRunForDoneUpfrontAdvancesNothing(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	start := tw.W.Now()
	if err := runFor(tw.W, runForSlice, nil, func() bool { return true }); err != nil {
		t.Fatal(err)
	}
	if tw.W.Now() != start {
		t.Fatal("a span already decided advanced the world")
	}
}

func TestRunForNeverDoneRunsWholeAndChecksContextPerSlice(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	ctx := &countingCtx{Context: context.Background()}
	d := 3*runForSlice + 7
	start := tw.W.Now()
	if err := runFor(tw.W, d, ctx, func() bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got := sim.Duration(tw.W.Now() - start); got != d {
		t.Fatalf("advanced %v, want %v", got, d)
	}
	if ctx.calls != 4 {
		t.Fatalf("Err() called %d times for a four-slice span, want 4", ctx.calls)
	}
}

func TestRunForDecidedSpanIgnoresLateCancel(t *testing.T) {
	tw, _ := BuildTrialWorld(shortCfg().WithDefaults(), Instrumentation{})
	start := tw.W.Now()
	// Cancellation shows from the second check on, by which point the
	// span is decided: like a completed final slice, that is a finished
	// simulation, not a canceled one.
	ctx := &lateCancelCtx{Context: context.Background(), cancelAt: 2}
	if err := runFor(tw.W, 40*runForSlice, ctx, doneAfter(tw, start, runForSlice)); err != nil {
		t.Fatalf("decided span failed with %v", err)
	}
	if ctx.calls != 1 {
		t.Fatalf("Err() called %d times, want 1 (done is consulted first)", ctx.calls)
	}
}

// catalogTrial is point i of a catalog sweep at its first seed under the
// default seed base.
func catalogTrial(name string, i int) TrialConfig {
	opts := Options{}
	_, pts, err := catalogSweep(name, &opts)
	if err != nil {
		panic(err)
	}
	cfg := pts[i].Cfg
	cfg.Seed = pts[i].SeedBase
	return cfg
}

// fig9Trial is exp1's first point (Hop Interval 25) at its first seed,
// with the default 120 s budget.
func fig9Trial() TrialConfig { return catalogTrial("exp1", 0) }

// decidedSpan bounds how long a decided Fig. 9 trial may simulate: the
// injection settles within a few connection events, so a trial that gets
// anywhere near its 120 s budget has lost the stop rule.
const decidedSpan = 5 * sim.Second

func TestRunTrialStopsOnceDecided(t *testing.T) {
	cfg := fig9Trial()
	// Every simulated slice consults the context once, so the count is
	// the simulated time in slices: warm-up included, it would be
	// (3 s + 120 s) / 250 ms = 492 at full budget.
	ctx := &countingCtx{Context: context.Background()}
	cfg.Ctx = ctx
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || !res.EffectObserved {
		t.Fatalf("trial not decided as a success: %+v", res)
	}
	if simulated := sim.Duration(ctx.calls) * runForSlice; simulated > 3*sim.Second+decidedSpan {
		t.Fatalf("trial simulated %v (%d slices), want at most warm-up + %v", simulated, ctx.calls, decidedSpan)
	}
}

func TestRunForkStopsOnceDecidedWithUnchangedForensics(t *testing.T) {
	cfg := fig9Trial()
	wt, err := NewWarmTrial(instrumented(cfg), WarmTrialSeed(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	start := wt.tw.W.Now()
	res, err := wt.RunFork(cfg.Seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || !res.EffectObserved {
		t.Fatalf("trial not decided as a success: %+v", res)
	}
	span := sim.Duration(wt.tw.W.Now() - start)
	if span > decidedSpan || span%runForSlice != 0 {
		t.Fatalf("forked trial simulated %v, want a whole number of slices within %v", span, decidedSpan)
	}
	// The decision is final: running out the rest of the budget adds no
	// attempt and changes no forensics record.
	recs := append([]obs.InjectionRecord(nil), wt.Forensics()...)
	if len(recs) == 0 {
		t.Fatal("the forked trial recorded no forensics to compare")
	}
	attempts := counterValue(wt.hub.Snapshot(), "inject.attempts")
	if err := runFor(wt.tw.W, wt.cfg.SimBudget-span, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wt.Forensics(), recs) {
		t.Fatal("forensics ledger changed after the decision")
	}
	if got := counterValue(wt.hub.Snapshot(), "inject.attempts"); got != attempts {
		t.Fatalf("inject.attempts moved from %d to %d after the decision", attempts, got)
	}
}

// TestFullBudgetWhenUndecided covers the trials the stop rule must not
// cut: an injection whose effect never shows, an IDS world (its alert
// count covers the whole budget), and the goals whose results read the
// world's end-of-budget state.
func TestFullBudgetWhenUndecided(t *testing.T) {
	frozen := catalogTrial("ablation-guard", 1)
	if !frozen.Injector.DisableAdaptiveGuard {
		t.Fatal("ablation-guard point 1 is not the frozen guard")
	}
	short := func(mut func(*TrialConfig)) TrialConfig {
		cfg := fig9Trial()
		cfg.SimBudget = 4 * sim.Second
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  TrialConfig
	}{
		{"ablation-guard/frozen", frozen},
		{"ids", short(func(c *TrialConfig) { c.IDS = true })},
		{GoalNone, short(func(c *TrialConfig) { c.Goal = GoalNone })},
		{GoalUpdate, short(func(c *TrialConfig) { c.Goal = GoalUpdate })},
		{GoalHijackSlave, short(func(c *TrialConfig) { c.Goal = GoalHijackSlave })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wt, err := NewWarmTrial(tc.cfg, WarmTrialSeed(tc.cfg.Seed))
			if err != nil {
				t.Fatal(err)
			}
			start := wt.tw.W.Now()
			res, err := wt.RunFork(tc.cfg.Seed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "ablation-guard/frozen" && (res.Success || res.EffectObserved) {
				t.Fatalf("frozen guard trial should fail without effect: %+v", res)
			}
			if span := sim.Duration(wt.tw.W.Now() - start); span != wt.cfg.SimBudget {
				t.Fatalf("simulated %v, want the whole %v budget", span, wt.cfg.SimBudget)
			}
		})
	}
}
