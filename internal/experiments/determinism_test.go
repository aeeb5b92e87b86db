package experiments

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"injectable/internal/injectable"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// TestDeterminismIndependentOfGCAndWorkers is the regression fence for the
// allocation-reuse machinery (pooled scheduler events, arena-backed frames,
// worker-local arenas): rendered experiment output must not depend on when
// the garbage collector runs or how many workers the campaign uses. If any
// pooled object leaked state between trials — or an RNG draw moved — GC
// timing or work stealing would perturb these bytes.
func TestDeterminismIndependentOfGCAndWorkers(t *testing.T) {
	render := func(parallel int) string {
		exp, err := RunSweep("exp1", Options{TrialsPerPoint: 2, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return exp.Table().Render()
	}

	baseline := render(1)

	// GC disabled: pooled/arena memory is never reclaimed mid-run, so any
	// dependence on object reuse timing surfaces as a byte difference.
	gc := debug.SetGCPercent(-1)
	noGCSerial := render(1)
	noGCParallel := render(4)
	debug.SetGCPercent(gc)

	// GC forced aggressive: collections interleave with trial execution.
	debug.SetGCPercent(1)
	aggressive := render(4)
	debug.SetGCPercent(gc)

	for _, c := range []struct {
		name string
		got  string
	}{
		{"GOGC=off serial", noGCSerial},
		{"GOGC=off parallel=4", noGCParallel},
		{"GOGC=1 parallel=4", aggressive},
	} {
		if c.got != baseline {
			t.Errorf("%s output differs from default-GC serial run:\n%s\n--- vs ---\n%s",
				c.name, c.got, baseline)
		}
	}
}

// TestForkDeterminismMatrix is the fork path's differential harness run at
// campaign scale: for several ablation dimensions (payload, phone-grade
// clock, wall, capture models), the full sweep pipeline — campaign engine,
// per-trial obs hubs, NDJSON and metrics encoders — must emit byte-for-byte
// identical streams whether trials fork a per-worker snapshot ("shared") or
// build fresh worlds with the shared warm seed ("shared-fresh"), at any
// worker count. Any divergence indicts snapshot capture/restore or stream
// rekeying, with the failing dimension naming the state that escaped.
func TestForkDeterminismMatrix(t *testing.T) {
	base := TrialConfig{
		Interval: 36, Payload: PayloadPowerOff,
		Injector: injectable.InjectorConfig{MaxAttempts: 40},
	}
	configs := []struct {
		name string
		cfg  func() TrialConfig
	}{
		{"payload-toggle", func() TrialConfig {
			c := base
			c.Interval, c.Payload = 75, PayloadToggle
			return c
		}},
		{"phone-grade", func() TrialConfig {
			c := base
			c.CentralPPM, c.CentralJitter = 50, 8*sim.Microsecond
			return c
		}},
		{"wall", func() TrialConfig {
			c := base
			c.AttackerPos = phy.Position{X: -2}
			c.Walls = []phy.Wall{{
				A:    phy.Position{X: -0.5, Y: -10},
				B:    phy.Position{X: -0.5, Y: 10},
				Loss: phy.DefaultWallLoss,
			}}
			return c
		}},
		{"capture-coinflip", func() TrialConfig {
			c := base
			c.Capture = medium.CoinFlip{P: 0.35}
			return c
		}},
		// One phase-capture model shared by every world of the point, as
		// the capture ablation builds it: under -race this catches a
		// restore in one worker rewriting the model another worker reads.
		{"capture-phase", func() TrialConfig {
			c := base
			c.Capture = medium.DefaultCaptureModel()
			return c
		}},
	}

	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pts := []SweepPoint{{Label: tc.name, SeedBase: 6000, Cfg: tc.cfg()}}
			run := func(mode string, parallel int) (ndjson, metrics string) {
				var nd, mt bytes.Buffer
				opts := Options{
					TrialsPerPoint: 3,
					Parallel:       parallel,
					Warmup:         mode,
					NDJSON:         &nd,
					Metrics:        &mt,
				}
				if _, err := RunSweepPoints(opts, "fork-determinism", pts); err != nil {
					t.Fatalf("%s parallel=%d: %v", mode, parallel, err)
				}
				return nd.String(), mt.String()
			}

			refND, refMT := run(WarmupSharedFresh, 1)
			if refND == "" || refMT == "" {
				t.Fatal("reference run produced empty streams")
			}
			for _, mode := range []string{WarmupShared, WarmupSharedFresh} {
				for _, parallel := range []int{1, 4, 8} {
					if mode == WarmupSharedFresh && parallel == 1 {
						continue // the reference itself
					}
					nd, mt := run(mode, parallel)
					label := fmt.Sprintf("%s parallel=%d", mode, parallel)
					if nd != refND {
						t.Errorf("%s: NDJSON diverges from shared-fresh serial reference:\n%s\n--- vs ---\n%s",
							label, nd, refND)
					}
					if mt != refMT {
						t.Errorf("%s: metrics stream diverges:\n%s\n--- vs ---\n%s", label, mt, refMT)
					}
				}
			}
		})
	}
}
