// Package campaign is a worker-pool execution engine for trial sweeps: it
// fans independent simulation trials out across bounded workers while
// keeping results bit-for-bit deterministic regardless of worker count or
// completion order.
//
// Determinism rests on two rules. First, every trial derives its own
// random stream from (SeedBase, point label, trial index) — never from
// shared mutable state — so a trial computes the same value no matter
// which worker runs it (sim.RNG is not goroutine-safe; giving each trial
// its own stream is also what makes the fan-out race-free). Second, the
// runner collates results into ordinal order before anything observes
// them: sinks, the Results slice and fail-fast error selection all see the
// same sequence a serial loop would have produced.
//
// A panicking trial is recovered and recorded as a failed Result instead
// of killing the campaign, and a per-trial deadline turns runaway
// simulations into TimedOut results.
package campaign

import (
	"context"
	"errors"
	"fmt"

	"injectable/internal/obs"
	"injectable/internal/sim"
)

// TrialFunc executes one trial. It must derive all randomness from the
// trial's Seed or RNG and must not share mutable state with other trials;
// the runner may invoke it from any worker goroutine.
type TrialFunc func(t Trial) (any, error)

// Warmup identifies one warmup invocation: the environment a worker is
// about to build and reuse across the trials it runs at one point.
type Warmup struct {
	// Campaign is the spec's Name; Point the owning point's Label.
	Campaign string
	Point    string
	// Seed is the point's derived warmup seed (DeriveWarmSeed unless the
	// warmup function derives its own — trial seeds never collide with it).
	Seed uint64
	// Arena is the worker-local arena the warmed environment should be
	// built on; it is the same arena the point's trials will see.
	Arena *sim.Arena
	// Ctx is the campaign's context.
	Ctx context.Context
	// CollectObs is the runner's CollectObs: the point's trials receive a
	// hub (Trial.Obs) only when it is set, so a warmed environment needs
	// to record observability only then.
	CollectObs bool
}

// WarmupFunc builds a point's warmed environment — typically a simulated
// world advanced to a snapshot the point's trials fork from. It runs on a
// worker goroutine at most once per (worker, point): the worker caches the
// value and hands it to every trial of the point via Trial.Warm. The value
// is worker-local, so the trial functions of one worker may mutate it
// (fork, run, restore) without synchronisation.
type WarmupFunc func(u Warmup) (any, error)

// DeriveWarmSeed is the default warmup-seed derivation, a sibling stream
// of the point's trial seeds ("warm" vs "trial"/i) so warmup randomness
// never overlaps any trial's.
func DeriveWarmSeed(seedBase uint64, point string) uint64 {
	return sim.NewRNG(seedBase).Child(point).Child("warm").Seed()
}

// Point is one configuration within a campaign: a label, a trial count and
// the function that runs one trial of it.
type Point struct {
	// Label names the configuration ("hopInterval=75", "clean@0.25", …).
	// Labels should be unique within a Spec.
	Label string
	// Trials is the number of independent trials at this point.
	Trials int
	// Seed optionally overrides the seed for trial index i. When nil the
	// seed is DeriveSeed(spec.SeedBase, Label, i). The experiments layer
	// uses this to keep its historical linear seed layout (and therefore
	// byte-identical tables) while still running under the pool.
	Seed func(index int) uint64
	// Warmup, when set, builds a reusable environment once per (worker,
	// point); every trial of the point receives it via Trial.Warm. Optional.
	Warmup WarmupFunc
	// WarmSeed optionally overrides the warmup seed (0 keeps the default
	// DeriveWarmSeed(spec.SeedBase, Label)).
	WarmSeed uint64
	// Run executes one trial. Required.
	Run TrialFunc
}

// Spec describes a whole campaign: an ordered list of points whose trials
// are all independent of each other.
type Spec struct {
	// Name identifies the campaign in sinks and errors.
	Name string
	// SeedBase is the root of every derived trial seed.
	SeedBase uint64
	// Points are run in order; trial ordinals are assigned point-major.
	Points []Point
}

// TotalTrials returns the number of trials across all points.
func (s *Spec) TotalTrials() int {
	n := 0
	for _, p := range s.Points {
		if p.Trials > 0 {
			n += p.Trials
		}
	}
	return n
}

// validate reports the first structural problem with the spec.
func (s *Spec) validate() error {
	for i, p := range s.Points {
		if p.Run == nil {
			return fmt.Errorf("campaign %q: point %d (%q) has no Run", s.Name, i, p.Label)
		}
	}
	return nil
}

// Trial identifies one unit of work handed to a TrialFunc.
type Trial struct {
	// Campaign is the spec's Name.
	Campaign string
	// Point is the owning point's Label.
	Point string
	// Index is the trial's index within its point.
	Index int
	// Ordinal is the trial's global position in the campaign (point-major);
	// results are delivered to sinks in ordinal order.
	Ordinal int
	// Seed is the trial's derived seed.
	Seed uint64
	// Obs is the trial's private observability hub, non-nil only when the
	// runner's CollectObs is set. The trial function threads it into the
	// world it builds (host.WorldConfig.Obs); the runner snapshots it into
	// Result.Obs when the trial returns. A nil Obs is safe to plumb
	// everywhere — all hub methods no-op on nil.
	Obs *obs.Hub
	// Arena is the worker-local simulation arena, reused across the trials
	// a worker runs so each trial recycles its predecessor's scheduler
	// events and frame buffers instead of re-allocating them, and taken
	// from (and returned to) a process-wide free list, so later runs reuse
	// it too. Trial functions thread it into the world they build
	// (host.WorldConfig.Arena) and must not keep arena-backed memory past
	// their return. May be nil (fresh allocations per trial); reuse never
	// changes trial results — the arena carries no RNG or simulation state
	// across trials.
	Arena *sim.Arena
	// Ctx is the campaign's context (never nil under RunContext). Trial
	// functions should observe it — directly or by threading it into the
	// world they drive — so an in-flight trial aborts promptly when the
	// campaign is cancelled or its deadline expires; a trial that ignores
	// it still stops the campaign, just one full trial later.
	Ctx context.Context
	// Warm is the worker's cached warmed environment for this trial's
	// point, non-nil only when the point declares a Warmup and it
	// succeeded. It is owned by this worker: the trial function may fork
	// and mutate it without synchronisation, but must leave it reusable
	// for the point's next trial on the same worker.
	Warm any
	// WarmErr reports a failed (or panicked) warmup for this trial's
	// point; when set, Warm is nil. The error is handed to the trial
	// function unwrapped so it can fail exactly as a self-warming trial
	// would, keeping output streams byte-identical across execution modes.
	WarmErr error

	run      TrialFunc
	warmup   WarmupFunc
	warmSeed uint64
}

// RNG returns a fresh deterministic stream owned exclusively by this
// trial. sim.RNG is not goroutine-safe; per-trial streams are what make
// the campaign's fan-out both race-free and order-independent.
func (t Trial) RNG() *sim.RNG { return sim.NewRNG(t.Seed) }

// DeriveSeed is the default trial-seed derivation: an FNV-mixed stream
// keyed by (seedBase, point, index) via sim.RNG's child mechanism, so two
// points (or two trials) never share a stream.
func DeriveSeed(seedBase uint64, point string, index int) uint64 {
	return sim.NewRNG(seedBase).Child(point).ChildN("trial", index).Seed()
}

// flatten expands the spec into the ordinal-ordered trial list.
func flatten(s *Spec) []Trial {
	trials := make([]Trial, 0, s.TotalTrials())
	ordinal := 0
	for _, p := range s.Points {
		// Default seeds are derived only where they are used: a derivation
		// builds three streams and hashes their names, and every point the
		// experiments layer builds brings its own Seed.
		warmSeed := p.WarmSeed
		if warmSeed == 0 && p.Warmup != nil {
			warmSeed = DeriveWarmSeed(s.SeedBase, p.Label)
		}
		for i := 0; i < p.Trials; i++ {
			var seed uint64
			if p.Seed != nil {
				seed = p.Seed(i)
			} else {
				seed = DeriveSeed(s.SeedBase, p.Label, i)
			}
			trials = append(trials, Trial{
				Campaign: s.Name,
				Point:    p.Label,
				Index:    i,
				Ordinal:  ordinal,
				Seed:     seed,
				run:      p.Run,
				warmup:   p.Warmup,
				warmSeed: warmSeed,
			})
			ordinal++
		}
	}
	return trials
}

// ErrTimeout marks a trial that exceeded the runner's per-trial deadline.
var ErrTimeout = errors.New("campaign: trial deadline exceeded")

// TrialError locates a failed trial within its campaign; it is what a
// fail-fast run returns.
type TrialError struct {
	Campaign string
	Point    string
	Index    int
	Seed     uint64
	Err      error
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("%s: point %s trial %d (seed %d): %v",
		e.Campaign, e.Point, e.Index, e.Seed, e.Err)
}

// Unwrap exposes the underlying trial error.
func (e *TrialError) Unwrap() error { return e.Err }

// PanicError wraps a value recovered from a panicking trial.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("trial panicked: %v", e.Value) }
