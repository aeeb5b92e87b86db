package sim

import (
	"math"
	"math/rand"
	"testing"
)

// alfgDraws crosses every boundary of the generator: the last draw read
// straight from the seed (273), the draw that builds the register (274),
// the feed's first pass over the register (334) and its wrap onto words
// written by earlier draws (607 and beyond).
const alfgDraws = 1500

var alfgEdgeSeeds = []int64{
	0, 1, -1, 89482311, alfgMod - 1, alfgMod, alfgMod + 1, -alfgMod,
	math.MinInt64, math.MaxInt64,
}

// alfgSeeds returns the edge seeds and n more spread over the whole int64
// range.
func alfgSeeds(n int) []int64 {
	r := rand.New(rand.NewSource(20210621))
	seeds := append([]int64{}, alfgEdgeSeeds...)
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// checkALFGMatches fails t unless src, just seeded with seed, yields
// math/rand's sequence for seed.
func checkALFGMatches(t *testing.T, src *alfg, seed int64) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < alfgDraws; i++ {
		if i%2 == 0 {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i+1, got, want)
			}
		} else if got, want := src.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: draw %d = %#x, want %#x (Int63)", seed, i+1, got, want)
		}
	}
}

func TestALFGMatchesMathRand(t *testing.T) {
	for _, seed := range alfgSeeds(2000) {
		var src alfg
		src.Seed(seed)
		checkALFGMatches(t, &src, seed)
	}
}

func TestALFGReseedMatchesFreshSource(t *testing.T) {
	for _, drawn := range []int{0, 1, 100, 273, 274, 333, 334, 1000} {
		for _, seed := range alfgSeeds(20) {
			var src alfg
			src.Seed(^seed)
			for i := 0; i < drawn; i++ {
				src.Uint64()
			}
			src.Seed(seed)
			checkALFGMatches(t, &src, seed)
		}
	}
}

func TestALFGBuildsRegisterOnDraw274(t *testing.T) {
	for _, seed := range alfgSeeds(20) {
		var src alfg
		src.Seed(seed)
		for i := 0; i < alfgTap; i++ {
			src.Uint64()
		}
		if src.vec != nil {
			t.Fatalf("seed %d: register built within the first %d draws", seed, alfgTap)
		}
		src.Uint64()
		if src.vec == nil {
			t.Fatalf("seed %d: draw %d built no register", seed, alfgTap+1)
		}
	}
}

func TestRNGFirstDrawAllocatesNothing(t *testing.T) {
	g := NewRNG(42)
	seed := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		g.Reseed(seed)
		g.Float64()
		g.Intn(37)
		g.NormFloat64()
	})
	if allocs != 0 {
		t.Fatalf("seeding and drawing allocated %v times per run, want 0", allocs)
	}
}

// TestALFGSnapshotReplays restores a stream captured before and after its
// register is built: the capture holds the seed position alone in the
// first case and the register in the second, and either way the draws
// after a restore repeat math/rand's.
func TestALFGSnapshotReplays(t *testing.T) {
	const seed = 987654321
	for _, drawn := range []int{10, alfgTap, alfgTap + 1, 700} {
		g := NewRNG(seed)
		for i := 0; i < drawn; i++ {
			g.Uint64()
		}
		if built := g.a.vec != nil; built != (drawn > alfgTap) {
			t.Fatalf("after %d draws: register built=%v", drawn, built)
		}
		snap := g.Snapshot()
		first := make([]uint64, alfgDraws)
		for i := range first {
			first[i] = g.Uint64()
		}
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < drawn; i++ {
			ref.Uint64()
		}
		for i, got := range first {
			if want := ref.Uint64(); got != want {
				t.Fatalf("after %d: draw %d = %#x, want math/rand's %#x", drawn, drawn+1+i, got, want)
			}
		}
		g.Restore(snap)
		if built := g.a.vec != nil; built != (drawn > alfgTap) {
			t.Fatalf("after %d draws: restore left register built=%v", drawn, built)
		}
		for i, want := range first {
			if got := g.Uint64(); got != want {
				t.Fatalf("after %d: draw %d after restore = %#x, want %#x", drawn, drawn+1+i, got, want)
			}
		}
	}
}

// TestRNGMethodsMatchMathRand drives every RNG method against a
// math/rand generator seeded the same way, interleaved so that each one
// meets the register before, during and after its fill.
func TestRNGMethodsMatchMathRand(t *testing.T) {
	for _, seed := range alfgSeeds(50) {
		g := NewRNG(uint64(seed))
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < alfgDraws/6; i++ {
			if got, want := g.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d step %d: Float64 = %v, want %v", seed, i, got, want)
			}
			if got, want := g.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("seed %d step %d: NormFloat64 = %v, want %v", seed, i, got, want)
			}
			if got, want := g.Intn(1000+i), ref.Intn(1000+i); got != want {
				t.Fatalf("seed %d step %d: Intn = %d, want %d", seed, i, got, want)
			}
			if got, want := g.Uint32(), ref.Uint32(); got != want {
				t.Fatalf("seed %d step %d: Uint32 = %d, want %d", seed, i, got, want)
			}
			if got, want := g.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d step %d: Uint64 = %d, want %d", seed, i, got, want)
			}
			if got, want := g.Duration(150*Microsecond), Duration(ref.Int63n(int64(150*Microsecond))); got != want {
				t.Fatalf("seed %d step %d: Duration = %v, want %v", seed, i, got, want)
			}
			got, want := make([]byte, 1+i%11), make([]byte, 1+i%11)
			g.Bytes(got)
			_, _ = ref.Read(want)
			if string(got) != string(want) {
				t.Fatalf("seed %d step %d: Bytes = %x, want %x", seed, i, got, want)
			}
		}
	}
}
