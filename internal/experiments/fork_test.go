package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"injectable/internal/campaign"
	"injectable/internal/injectable"
	"injectable/internal/obs"
	"injectable/internal/sim"
)

// shortCfg keeps fork unit tests fast: few attempts, small budget.
func shortCfg() TrialConfig {
	return TrialConfig{Interval: 36, Injector: injectable.InjectorConfig{MaxAttempts: 40}}
}

// instrumented returns cfg with a hub of its own: the warm world of a
// fork whose trials collect observability.
func instrumented(cfg TrialConfig) TrialConfig {
	cfg.Obs = obs.NewHub()
	return cfg
}

func TestRunForkMatchesWarmFresh(t *testing.T) {
	const base = 5000
	warmSeed := WarmTrialSeed(base)
	wt, err := NewWarmTrial(instrumented(shortCfg()), warmSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		trialSeed := uint64(base + i)

		forkSink := obs.NewHub()
		forked, err := wt.RunFork(trialSeed, forkSink, nil)
		if err != nil {
			t.Fatalf("trial %d: fork: %v", i, err)
		}

		freshCfg := shortCfg()
		freshSink := obs.NewHub()
		freshCfg.Obs = freshSink
		fresh, err := RunTrialWarmFresh(freshCfg, warmSeed, trialSeed)
		if err != nil {
			t.Fatalf("trial %d: warm-fresh: %v", i, err)
		}

		if forked != fresh {
			t.Fatalf("trial %d: fork=%+v fresh=%+v", i, forked, fresh)
		}
		forkObs, _ := json.Marshal(forkSink.Snapshot())
		freshObs, _ := json.Marshal(freshSink.Snapshot())
		if string(forkObs) != string(freshObs) {
			t.Fatalf("trial %d: obs snapshots diverge:\nfork =%s\nfresh=%s", i, forkObs, freshObs)
		}
		if len(forkSink.Led().Records()) == 0 {
			t.Fatalf("trial %d: the fork recorded no forensics", i)
		}
		if !reflect.DeepEqual(forkSink.Led().Records(), freshSink.Led().Records()) {
			t.Fatalf("trial %d: forensics ledgers diverge", i)
		}
	}
}

// TestUninstrumentedForksMatchInstrumented pins what a warm world built
// without a hub leaves out: the recording, and nothing the trial computes.
// For every attacker goal, and for an IDS world, forks of an
// uninstrumented and an instrumented WarmTrial with the same warm seed
// return identical results.
func TestUninstrumentedForksMatchInstrumented(t *testing.T) {
	type tc struct {
		name string
		cfg  TrialConfig
	}
	var cases []tc
	for _, goal := range []string{GoalInject, GoalNone, GoalHijackSlave, GoalHijackMaster, GoalMITM, GoalUpdate} {
		cfg := shortCfg()
		cfg.Goal = goal
		cfg.SimBudget = 4 * sim.Second
		cases = append(cases, tc{goal, cfg})
	}
	ids := shortCfg()
	ids.IDS = true
	ids.SimBudget = 4 * sim.Second
	cases = append(cases, tc{"ids", ids})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const base = 8100
			plain, err := NewWarmTrial(c.cfg, WarmTrialSeed(base))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := NewWarmTrial(instrumented(c.cfg), WarmTrialSeed(base))
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 3; i++ {
				want, wantErr := inst.RunFork(base+i, obs.NewHub(), nil)
				got, gotErr := plain.RunFork(base+i, nil, nil)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("trial %d: uninstrumented %+v (%v), instrumented %+v (%v)", i, got, gotErr, want, wantErr)
				}
			}
			if len(plain.Forensics()) != 0 {
				t.Fatal("an uninstrumented warm world recorded forensics")
			}
		})
	}
}

func TestRunForkRefusesSinkWithoutHub(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	start := wt.tw.W.Now()
	if _, err := wt.RunFork(123, obs.NewHub(), nil); err == nil {
		t.Fatal("RunFork filled no sink and reported no error")
	}
	if now := wt.tw.W.Now(); now != start {
		t.Fatalf("a refused fork simulated %v", now-start)
	}
	// The refusal leaves the warm trial usable.
	if _, err := wt.RunFork(123, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunForkIsReplayable(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	a, err := wt.RunFork(123, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An interleaved different-seed trial must not perturb the replay.
	if _, err := wt.RunFork(456, nil, nil); err != nil {
		t.Fatal(err)
	}
	b, err := wt.RunFork(123, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed forks diverge: %+v vs %+v", a, b)
	}
}

func TestRunCounterfactual(t *testing.T) {
	wt, err := NewWarmTrial(shortCfg(), WarmTrialSeed(300))
	if err != nil {
		t.Fatal(err)
	}
	out, err := wt.RunCounterfactual(301, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.BaselineEffect {
		t.Fatal("bulb changed state with no attacker traffic")
	}
	if out.Injected.EffectObserved && !out.Causal {
		t.Fatal("observed effect not attributed to the injection")
	}
}

// TestWarmWorldCaptureObjects pins the size of a forked world's capture:
// BenchmarkTrialForked's warm world (interval 36, warm seed
// WarmTrialSeed(31000)) holds 72 objects. Each drawn stream's alfg is
// captured once, with its RNG's bytes; a walk that followed the stream's
// rand.Rand source pointer would capture six of them a second time.
func TestWarmWorldCaptureObjects(t *testing.T) {
	wt, err := NewWarmTrial(benchCfg(), WarmTrialSeed(31000))
	if err != nil {
		t.Fatal(err)
	}
	if n := sim.CaptureRoots(wt.tw.W.SnapshotRoots()...).Objects(); n != 72 {
		t.Fatalf("warm world capture holds %d objects, want 72", n)
	}
}

// TestPooledArenasMatchFreshArenas: campaign workers take their arenas
// from a process-wide free list, so a run reuses what an earlier run
// returned. Two sequential runs on pooled arenas must stream the same
// bytes as a run whose every trial and warmup builds on a fresh arena, in
// both the fresh-world and the forked execution modes.
func TestPooledArenasMatchFreshArenas(t *testing.T) {
	pts := []SweepPoint{
		{Label: "i25", SeedBase: 52000, Cfg: TrialConfig{Interval: 25}},
		{Label: "i75", SeedBase: 53000, Cfg: TrialConfig{Interval: 75, Payload: PayloadColor}},
	}
	for _, warmup := range []string{"", WarmupShared} {
		opts := Options{TrialsPerPoint: 3, SeedBase: 52000, Warmup: warmup}
		// run streams the campaign, recording every arena its trials and
		// warmups were handed; fresh swaps each for a new arena.
		run := func(fresh bool) ([]byte, map[*sim.Arena]bool) {
			t.Helper()
			var mu sync.Mutex
			seen := map[*sim.Arena]bool{}
			note := func(a *sim.Arena) *sim.Arena {
				if fresh {
					a = sim.NewArena()
				}
				mu.Lock()
				seen[a] = true
				mu.Unlock()
				return a
			}
			spec := BuildSweep(opts, "pooled", pts)
			for i := range spec.Points {
				p := &spec.Points[i]
				run, warm := p.Run, p.Warmup
				p.Run = func(tr campaign.Trial) (any, error) {
					tr.Arena = note(tr.Arena)
					return run(tr)
				}
				if warm != nil {
					p.Warmup = func(u campaign.Warmup) (any, error) {
						u.Arena = note(u.Arena)
						return warm(u)
					}
				}
			}
			var buf bytes.Buffer
			r := campaign.Runner{Workers: 2, Sinks: []campaign.Sink{campaign.NewBinary(&buf)}}
			if _, err := r.Run(spec); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), seen
		}
		first, firstArenas := run(false)
		second, secondArenas := run(false)
		fresh, _ := run(true)
		reused := false
		for a := range secondArenas {
			reused = reused || firstArenas[a]
		}
		if !reused {
			t.Errorf("warmup %q: the second run reused none of the first run's arenas", warmup)
		}
		if !bytes.Equal(first, fresh) || !bytes.Equal(second, fresh) {
			t.Errorf("warmup %q: pooled-arena streams differ from the fresh-arena stream", warmup)
		}
	}
}
