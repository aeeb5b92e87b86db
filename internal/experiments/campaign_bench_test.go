package experiments

import (
	"fmt"
	"testing"
)

// BenchmarkCampaignParallel records the campaign engine's speedup on the
// real workload: a fixed exp1-style sweep (6 Hop Interval points on the
// 2 m triangle) at 1, 2 and 4 workers. Output is identical at every
// worker count; only wall time should move.
func BenchmarkCampaignParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp, err := RunSweep("exp1", Options{TrialsPerPoint: 2, Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(exp.Points) != 6 {
					b.Fatalf("%d points", len(exp.Points))
				}
			}
		})
	}
}
