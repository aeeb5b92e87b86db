package experiments

import (
	"testing"

	"injectable/internal/injectable"
	"injectable/internal/sim"
)

// The fork fast path exists to amortise trial startup: building a world
// and establishing the connection dominates a trial's cost, and every
// trial of a point repeats it identically. These two benchmarks measure
// the same trial executed both ways — BENCH_9.json pins the ratio, and
// the CI gate keeps the forked path from regressing toward the fresh one.

func benchCfg() TrialConfig {
	// A decided injection ends at the next 250 ms slice boundary, so the
	// budget does not bound these trials; it caps only one whose effect
	// never shows. 2 s still covers the full MaxAttempts race with margin.
	return TrialConfig{Interval: 36, Injector: injectable.InjectorConfig{MaxAttempts: 40}, SimBudget: 2 * sim.Second}
}

// BenchmarkTrialForked is the fast path: one warm world, every iteration
// forks the snapshot and runs only the injection race.
func BenchmarkTrialForked(b *testing.B) {
	const base = 31000
	wt, err := NewWarmTrial(benchCfg(), WarmTrialSeed(base))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := wt.RunFork(base+uint64(i%64), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success && res.Attempts == 0 {
			b.Fatal("trial did not run")
		}
	}
}

// BenchmarkTrialFresh is the differential reference: every iteration
// builds a fresh world, warms it through connection establishment, and
// runs the same injection race.
func BenchmarkTrialFresh(b *testing.B) {
	const base = 31000
	warmSeed := WarmTrialSeed(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunTrialWarmFresh(benchCfg(), warmSeed, base+uint64(i%64))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success && res.Attempts == 0 {
			b.Fatal("trial did not run")
		}
	}
}
