package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"injectable/internal/obs"
	"injectable/internal/sim"
)

// Runner executes a Spec over a bounded worker pool.
//
// The zero value is usable: all cores, no deadline, no retries, collect
// every result.
type Runner struct {
	// Workers bounds concurrency; 0 (or negative) means GOMAXPROCS.
	// Workers=1 is the serial degenerate case.
	Workers int
	// Timeout, when positive, is the wall-clock deadline for one trial
	// attempt. A trial that exceeds it is recorded as failed with
	// ErrTimeout (its goroutine is abandoned — simulation trials are pure
	// CPU work with no resources to reclaim).
	Timeout time.Duration
	// Retries re-runs a failed trial attempt up to this many extra times
	// (useful for trial functions with wall-clock nondeterminism; a
	// deterministic simulation will fail identically every time).
	Retries int
	// FailFast aborts the campaign at the first failed result in ordinal
	// order, returning a *TrialError. Because abort is decided on the
	// collated sequence, the returned error and the collected Results are
	// identical for every worker count.
	FailFast bool
	// Sinks observe the run. All sink methods are invoked from a single
	// goroutine, in ordinal order — sink implementations need no locking
	// against the runner.
	Sinks []Sink
	// CollectObs hands every trial attempt a fresh obs.Hub (via Trial.Obs)
	// and snapshots its registry into Result.Obs when the attempt returns.
	// Per-trial hubs are what keep metric collection race-free and
	// deterministic at any worker count: no two trials ever share a
	// registry, and snapshots are delivered in ordinal order like every
	// other result field.
	CollectObs bool
}

// Result reports one trial.
//
// Value, Err, Panicked, TimedOut, Attempts and the identity fields are
// deterministic for a deterministic TrialFunc; Elapsed and Worker are
// measurements and vary run to run.
type Result struct {
	Campaign string
	Point    string
	Index    int
	Ordinal  int
	Seed     uint64
	// Value is the TrialFunc's return value (nil on failure).
	Value any
	// Err is the trial's failure, if any; *PanicError for panics,
	// ErrTimeout (wrapped) for deadline hits.
	Err error
	// Panicked marks a trial whose last attempt panicked.
	Panicked bool
	// TimedOut marks a trial whose last attempt hit the deadline.
	TimedOut bool
	// Attempts is 1 plus the retries consumed.
	Attempts int
	// Elapsed is the wall time across all attempts (not deterministic).
	Elapsed time.Duration
	// Worker is the pool slot that ran the trial (not deterministic).
	Worker int
	// Obs is the metrics snapshot of the trial's last attempt (nil unless
	// the runner's CollectObs is set, or when the attempt timed out — its
	// abandoned goroutine may still be writing).
	Obs *obs.Snapshot
}

// Failed reports whether the trial ultimately failed.
func (r Result) Failed() bool { return r.Err != nil }

// Outcome is a completed campaign: ordinally-ordered results plus counters.
type Outcome struct {
	// Results holds one entry per collected trial in ordinal order. Under
	// FailFast the slice ends at the failing trial.
	Results []Result
	// Metrics summarises the run.
	Metrics Metrics
}

// Run executes the spec and blocks until the campaign completes (or, under
// FailFast, until the first in-order failure has been identified and the
// pool drained). The returned error is nil unless the spec is invalid or
// FailFast tripped.
func (r *Runner) Run(spec *Spec) (*Outcome, error) {
	return r.RunContext(context.Background(), spec)
}

// RunContext is Run under a context. When ctx is cancelled (or its
// deadline expires) the feeder stops dispatching, every in-flight trial
// sees the cancellation through Trial.Ctx, and the call returns the
// collated prefix of results together with ctx's error. Shutdown latency
// is bounded by how quickly the trial functions observe Trial.Ctx — the
// experiments layer checks it between simulation slices — and no worker
// goroutines are left behind.
func (r *Runner) RunContext(ctx context.Context, spec *Spec) (*Outcome, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	trials := flatten(spec)
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trials) {
		workers = len(trials)
	}

	start := time.Now()
	ctr := &counters{}
	out := &Outcome{Results: make([]Result, 0, len(trials))}
	for _, s := range r.Sinks {
		s.Start(spec, len(trials))
	}
	if len(trials) == 0 {
		out.Metrics = ctr.snapshot(workers, time.Since(start))
		for _, s := range r.Sinks {
			s.Finish(out.Metrics)
		}
		return out, nil
	}

	jobs := make(chan Trial)
	resCh := make(chan Result, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each worker holds one simulation arena for its whole run,
			// reused across its trials so steady-state trials recycle
			// scheduler events and frame buffers instead of re-allocating
			// them. It comes from the process-wide free list and goes back
			// when the worker ends, so the next run reuses it too.
			arena := sim.TakeArena()
			defer func() { sim.ReturnArena(arena) }()
			// One warm slot per worker: the jobs channel delivers trials
			// point-major, so a worker's points are non-decreasing and a
			// single cached environment warms each point at most once per
			// worker. An arena hosts one live world, so a new point's warm
			// world evicts the previous point's.
			var warm warmSlot
			for t := range jobs {
				t.Arena = arena
				t.Ctx = ctx
				if t.warmup != nil {
					if !warm.valid || warm.point != t.Point {
						warm = runWarmup(t, ctx, r.CollectObs)
						ctr.warmups.Add(1)
					}
					t.Warm, t.WarmErr = warm.value, warm.err
				}
				res, abandoned := r.runTrial(id, t, ctr)
				if abandoned {
					// An abandoned attempt goroutine may still be touching
					// the arena (and any warm world built on it): drop it,
					// never to be returned, take another and re-warm.
					arena = sim.TakeArena()
					warm = warmSlot{}
				}
				resCh <- res
			}
		}(w)
	}
	go func() { // feeder
		defer close(jobs)
		for _, t := range trials {
			select {
			case jobs <- t:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { // closer
		wg.Wait()
		close(resCh)
	}()

	// Collate into ordinal order. Everything downstream of this loop —
	// sinks, Results, the fail-fast error — sees the serial-order sequence.
	coll := NewCollator[Result](0)
	var firstErr error
	aborted := false
	for res := range resCh {
		ctr.record(res)
		for _, ordered := range coll.Add(res.Ordinal, res) {
			if aborted {
				continue
			}
			out.Results = append(out.Results, ordered)
			for _, s := range r.Sinks {
				s.Result(ordered)
			}
			if ordered.Err != nil && r.FailFast {
				firstErr = &TrialError{
					Campaign: ordered.Campaign,
					Point:    ordered.Point,
					Index:    ordered.Index,
					Seed:     ordered.Seed,
					Err:      ordered.Err,
				}
				aborted = true
				abort()
			}
		}
	}

	out.Metrics = ctr.snapshot(workers, time.Since(start))
	for _, s := range r.Sinks {
		s.Finish(out.Metrics)
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, firstErr
}

// warmSlot caches one point's warmed environment on a worker. A failed
// warmup is cached too: every trial of the point receives the same error
// instead of re-warming (a deterministic warmup would fail identically).
type warmSlot struct {
	valid bool
	point string
	value any
	err   error
}

// runWarmup builds one point's warmed environment with panic recovery.
func runWarmup(t Trial, ctx context.Context, collectObs bool) (slot warmSlot) {
	slot = warmSlot{valid: true, point: t.Point}
	defer func() {
		if v := recover(); v != nil {
			slot.value = nil
			slot.err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	slot.value, slot.err = t.warmup(Warmup{
		Campaign:   t.Campaign,
		Point:      t.Point,
		Seed:       t.warmSeed,
		Arena:      t.Arena,
		Ctx:        ctx,
		CollectObs: collectObs,
	})
	return slot
}

// runTrial runs one trial with retries, panic recovery and the deadline.
// abandoned reports that an attempt timed out: its goroutine was left
// running on the trial's arena, even if a later retry succeeded.
func (r *Runner) runTrial(worker int, t Trial, ctr *counters) (res Result, abandoned bool) {
	res = Result{
		Campaign: t.Campaign,
		Point:    t.Point,
		Index:    t.Index,
		Ordinal:  t.Ordinal,
		Seed:     t.Seed,
		Worker:   worker,
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if r.CollectObs {
			t.Obs = obs.NewHub() // fresh hub per attempt: retries don't double-count
		}
		res.Value, res.Err, res.Panicked, res.TimedOut = r.attempt(t)
		res.Attempts = attempt + 1
		if t.Obs != nil && !res.TimedOut {
			res.Obs = t.Obs.Snapshot()
		}
		if res.TimedOut {
			// The abandoned goroutine may still be using the arena; any
			// retry below must not share it.
			t.Arena = nil
			abandoned = true
		}
		if res.Err == nil || attempt >= r.Retries {
			break
		}
		if t.Ctx != nil && t.Ctx.Err() != nil {
			break // a cancelled trial would only fail identically again
		}
		ctr.retried.Add(1)
	}
	res.Elapsed = time.Since(start)
	return res, abandoned
}

// attempt runs the trial function once, under the deadline if one is set.
func (r *Runner) attempt(t Trial) (value any, err error, panicked, timedOut bool) {
	if r.Timeout <= 0 {
		value, err, panicked = runProtected(t)
		return value, err, panicked, false
	}
	type attemptResult struct {
		value    any
		err      error
		panicked bool
	}
	done := make(chan attemptResult, 1)
	go func() {
		v, e, p := runProtected(t)
		done <- attemptResult{v, e, p}
	}()
	timer := time.NewTimer(r.Timeout)
	defer timer.Stop()
	select {
	case out := <-done:
		return out.value, out.err, out.panicked, false
	case <-timer.C:
		return nil, fmt.Errorf("%w (limit %v)", ErrTimeout, r.Timeout), false, true
	}
}

// runProtected converts a panicking trial into a failed result.
func runProtected(t Trial) (value any, err error, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			value = nil
			panicked = true
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	value, err = t.run(t)
	return value, err, false
}
