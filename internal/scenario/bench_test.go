package scenario_test

import (
	"os"
	"path/filepath"
	"testing"

	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// BenchmarkScenarioCompile measures the full admission pipeline on the
// richest committed example — decode, validate, canonicalize, compile to
// a 4-point campaign — the work the daemon performs per POST /v1/scenario
// before any caching. Allocation counts are deterministic and gated by
// BENCH_10.json.
func BenchmarkScenarioCompile(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-update.json"))
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{TrialsPerPoint: 25, SeedBase: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := scenario.DecodeSpec(raw)
		if err != nil {
			b.Fatal(err)
		}
		if err := scenario.Validate(sp, 25, scenario.DefaultLimits); err != nil {
			b.Fatal(err)
		}
		if _, err := scenario.CanonicalBytes(raw); err != nil {
			b.Fatal(err)
		}
		if _, err := scenario.Compile(sp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioFleetUpdate runs the first point of the fleet-update
// example (CSA#1, hop interval 30) for one trial at a fixed seed. Its four
// bystander peripherals advertise for the whole 90 s budget, so this is
// the advertising hot path of long-budget worlds; allocation counts are
// deterministic and gated by BENCH_10.json.
func BenchmarkScenarioFleetUpdate(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-update.json"))
	if err != nil {
		b.Fatal(err)
	}
	sp, err := scenario.DecodeSpec(raw)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{TrialsPerPoint: 1, SeedBase: 1000, Parallel: 1, PointCount: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Execute(sp, opts); err != nil {
			b.Fatal(err)
		}
	}
}
