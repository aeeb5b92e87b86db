package campaign

import (
	"errors"
	"sync/atomic"
	"testing"
)

// warmEnv is a toy warmed environment: trials read base and record which
// warmup instance they saw.
type warmEnv struct {
	point string
	base  int
}

func warmedSpec(warmCalls *atomic.Int64, warmErr error) *Spec {
	warmup := func(u Warmup) (any, error) {
		warmCalls.Add(1)
		if warmErr != nil {
			return nil, warmErr
		}
		return &warmEnv{point: u.Point, base: 100}, nil
	}
	point := func(label string) Point {
		return Point{
			Label:  label,
			Trials: 6,
			Warmup: warmup,
			Run: func(t Trial) (any, error) {
				if t.WarmErr != nil {
					return nil, t.WarmErr
				}
				env := t.Warm.(*warmEnv)
				if env.point != t.Point {
					return nil, errors.New("warm env from wrong point")
				}
				return env.base + t.Index, nil
			},
		}
	}
	return &Spec{Name: "warmed", SeedBase: 1, Points: []Point{point("a"), point("b")}}
}

func TestWarmupSharedAcrossPointTrials(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Workers: 1}
	out, err := r.Run(warmedSpec(&calls, nil))
	if err != nil {
		t.Fatal(err)
	}
	// One worker, two points: exactly two warmups for twelve trials.
	if got := calls.Load(); got != 2 {
		t.Fatalf("warmup calls=%d, want 2", got)
	}
	if out.Metrics.Warmups != 2 {
		t.Fatalf("metrics warmups=%d, want 2", out.Metrics.Warmups)
	}
	for _, res := range out.Results {
		if res.Err != nil {
			t.Fatalf("trial %s/%d failed: %v", res.Point, res.Index, res.Err)
		}
		if res.Value.(int) != 100+res.Index {
			t.Fatalf("trial %s/%d value=%v", res.Point, res.Index, res.Value)
		}
	}
}

func TestWarmupResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	var base []Result
	for _, workers := range []int{1, 3, 8} {
		var calls atomic.Int64
		r := &Runner{Workers: workers}
		out, err := r.Run(warmedSpec(&calls, nil))
		if err != nil {
			t.Fatal(err)
		}
		// Bounded by workers × points even when every worker warms both.
		if got := calls.Load(); got > int64(workers*2) {
			t.Fatalf("workers=%d: warmup calls=%d exceeds bound %d", workers, got, workers*2)
		}
		var vals []Result
		for _, res := range out.Results {
			res.Elapsed, res.Worker = 0, 0 // strip the non-deterministic fields
			vals = append(vals, res)
		}
		if base == nil {
			base = vals
			continue
		}
		for i := range vals {
			if vals[i] != base[i] {
				t.Fatalf("workers=%d: result %d = %+v, want %+v", workers, i, vals[i], base[i])
			}
		}
	}
}

func TestWarmupErrorReachesEveryTrialUnwrapped(t *testing.T) {
	var calls atomic.Int64
	warmErr := errors.New("radio hardware on fire")
	r := &Runner{Workers: 2}
	out, err := r.Run(warmedSpec(&calls, warmErr))
	if err != nil {
		t.Fatal(err)
	}
	// The failure is cached, not retried per trial.
	if got := calls.Load(); got > 4 {
		t.Fatalf("warmup calls=%d, want ≤ 4 (2 workers × 2 points)", got)
	}
	for _, res := range out.Results {
		var te *TrialError
		if errors.As(res.Err, &te) {
			t.Fatalf("trial error wrapped: %v", res.Err)
		}
		if !errors.Is(res.Err, warmErr) {
			t.Fatalf("trial %s/%d err=%v, want the warmup error", res.Point, res.Index, res.Err)
		}
	}
}

func TestWarmupPanicBecomesPanicError(t *testing.T) {
	spec := &Spec{Name: "p", SeedBase: 1, Points: []Point{{
		Label:  "a",
		Trials: 2,
		Warmup: func(Warmup) (any, error) { panic("warm boom") },
		Run: func(t Trial) (any, error) {
			if t.WarmErr != nil {
				return nil, t.WarmErr
			}
			return nil, nil
		},
	}}}
	out, err := (&Runner{Workers: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range out.Results {
		var pe *PanicError
		if !errors.As(res.Err, &pe) || pe.Value != "warm boom" {
			t.Fatalf("err=%v, want PanicError(warm boom)", res.Err)
		}
	}
}

func TestWarmupSeedsAreStableAndDistinctFromTrialSeeds(t *testing.T) {
	var seeds []uint64
	spec := &Spec{Name: "s", SeedBase: 7, Points: []Point{{
		Label:  "a",
		Trials: 3,
		Warmup: func(u Warmup) (any, error) {
			seeds = append(seeds, u.Seed)
			return struct{}{}, nil
		},
		Run: func(t Trial) (any, error) { return t.Seed, nil },
	}}}
	out, err := (&Runner{Workers: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 {
		t.Fatalf("warmups=%d, want 1", len(seeds))
	}
	if seeds[0] != DeriveWarmSeed(7, "a") {
		t.Fatalf("warm seed %d, want %d", seeds[0], DeriveWarmSeed(7, "a"))
	}
	for _, res := range out.Results {
		if res.Value.(uint64) == seeds[0] {
			t.Fatalf("trial %d seed collides with warm seed", res.Index)
		}
	}
}

func TestWarmupSeesWhetherTheRunnerCollects(t *testing.T) {
	for _, collect := range []bool{false, true} {
		var saw []bool
		spec := &Spec{Name: "s", SeedBase: 7, Points: []Point{{
			Label:  "a",
			Trials: 2,
			Warmup: func(u Warmup) (any, error) {
				saw = append(saw, u.CollectObs)
				return struct{}{}, nil
			},
			Run: func(t Trial) (any, error) { return t.Obs != nil, nil },
		}}}
		out, err := (&Runner{Workers: 1, CollectObs: collect}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(saw) != 1 || saw[0] != collect {
			t.Fatalf("CollectObs=%v: warmup saw %v", collect, saw)
		}
		for _, res := range out.Results {
			if res.Value.(bool) != collect {
				t.Fatalf("CollectObs=%v: trial %d got a hub=%v", collect, res.Index, res.Value)
			}
		}
	}
}
