package sim

import (
	"math/rand"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGChildIndependence(t *testing.T) {
	parent := NewRNG(42)
	c1 := parent.Child("medium")
	// Consuming from c1 must not affect a later-derived identical child.
	for i := 0; i < 10; i++ {
		c1.Uint64()
	}
	c1b := parent.Child("medium")
	c2 := NewRNG(42).Child("medium")
	if c1b.Uint64() != c2.Uint64() {
		t.Fatal("Child not a pure function of (seed, name)")
	}
}

func TestRNGChildNamesDiffer(t *testing.T) {
	parent := NewRNG(42)
	a := parent.Child("a")
	b := parent.Child("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children by different names correlated: %d/64 equal", same)
	}
}

func TestRNGChildNIndependence(t *testing.T) {
	parent := NewRNG(42)
	// Pure function of (seed, name, n): consuming from one derived stream
	// must not affect a re-derivation, and siblings must not correlate.
	a := parent.ChildN("trial", 0)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	if NewRNG(42).ChildN("trial", 0).Uint64() != parent.ChildN("trial", 0).Uint64() {
		t.Fatal("ChildN not a pure function of (seed, name, n)")
	}
	b := parent.ChildN("trial", 1)
	c := parent.ChildN("trial", 2)
	same := 0
	for i := 0; i < 64; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling indexed streams correlated: %d/64 equal", same)
	}
	// ChildN must not collide with the name-only Child derivation.
	if parent.Child("trial").Seed() == parent.ChildN("trial", 0).Seed() {
		t.Fatal("ChildN(name, 0) collides with Child(name)")
	}
}

func TestRNGChildNStableAcrossGoVersions(t *testing.T) {
	// The derivation is FNV-1a (spec-fixed) feeding math/rand (sequence
	// frozen by the Go 1 compatibility promise). These goldens pin both:
	// a toolchain that changes either breaks every recorded campaign seed.
	goldens := []struct {
		n           int
		seed, first uint64
	}{
		{0, 0x35940eebe736188d, 0xcdb719a430f31032},
		{1, 0x169947e2dc46ce6c, 0xedfc75a2a0075f8c},
		{2, 0x73899cfdfd14accf, 0xfdeccebbd679a618},
	}
	g := NewRNG(42)
	for _, want := range goldens {
		c := g.ChildN("trial", want.n)
		if c.Seed() != want.seed {
			t.Errorf("ChildN(trial, %d).Seed() = %#x, want %#x", want.n, c.Seed(), want.seed)
		}
		if got := c.Uint64(); got != want.first {
			t.Errorf("ChildN(trial, %d) first draw = %#x, want %#x", want.n, got, want.first)
		}
	}
}

func TestRNGDurationBounds(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		d := g.Duration(150 * Microsecond)
		if d < 0 || d >= 150*Microsecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if g.Duration(0) != 0 || g.Duration(-5) != 0 {
		t.Fatal("non-positive bound should give 0")
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(9)
	n, hits := 10000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.22 || p > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %.3f", p)
	}
}

func TestRNGBytes(t *testing.T) {
	g := NewRNG(11)
	b := make([]byte, 32)
	g.Bytes(b)
	allZero := true
	for _, v := range b {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("Bytes returned all zeros")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(13)
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		sum += g.Normal(10, 2)
	}
	mean := sum / float64(n)
	if mean < 9.8 || mean > 10.2 {
		t.Fatalf("Normal(10,2) mean = %.3f", mean)
	}
}

func TestRNGStreamsListsRegistry(t *testing.T) {
	lone := NewRNG(5)
	if s := lone.Streams(); len(s) != 1 || s[0] != lone {
		t.Fatalf("lone root Streams() = %v, want just the root", s)
	}
	root := NewRNG(1)
	a := root.Child("a")
	b := a.ChildN("trial", 2) // a grandchild joins the root's registry
	c := root.Child("c")
	want := []*RNG{root, a, b, c}
	for _, g := range []*RNG{root, a, b, c} {
		got := g.Streams()
		if len(got) != len(want) {
			t.Fatalf("Streams() has %d streams, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Streams()[%d] is not the stream derived %d-th", i, i)
			}
		}
	}
	if len(lone.Streams()) != 1 {
		t.Fatal("another root's derivations joined an unrelated registry")
	}
}

func TestRNGSeedOnlyChainsBuildNoGenerator(t *testing.T) {
	root := NewRNG(3)
	_ = root.Child("point").Child("warm").Seed()
	_ = root.Child("point").ChildN("trial", 4).Seed()
	drawn := root.ChildN("trial", 5)
	drawn.Uint64()
	for i, g := range root.Streams() {
		if built := g.r != (rand.Rand{}); built != (g == drawn) {
			t.Errorf("stream %d: generator built=%v, want %v (only drawn streams seed)", i, built, g == drawn)
		}
	}
}

func TestRNGRekeyTwiceBeforeDrawMatchesEagerRekeys(t *testing.T) {
	draws := func(g *RNG) [6]uint64 {
		var out [6]uint64
		for i := range out[:5] {
			out[i] = g.Uint64()
		}
		var b [3]byte
		g.Bytes(b[:])
		out[5] = uint64(b[0])<<16 | uint64(b[1])<<8 | uint64(b[2])
		return out
	}
	// Eager: the generator is seeded the moment each rekey happens, as it
	// was when Reseed seeded on the spot.
	eager := NewRNG(7)
	eager.seedSource()
	eager.Rekey(11)
	eager.seedSource()
	eager.Rekey(12)
	eager.seedSource()
	want := draws(eager)

	lazy := NewRNG(7)
	lazy.Rekey(11)
	lazy.Rekey(12)
	// A stream that had drawn, leaving partial Read state, before both
	// rekeys.
	used := NewRNG(7)
	used.Uint64()
	var b [5]byte
	used.Bytes(b[:])
	used.Rekey(11)
	used.Rekey(12)
	for name, g := range map[string]*RNG{"never drawn": lazy, "drawn before": used} {
		if g.Seed() != eager.Seed() {
			t.Fatalf("%s: seed %#x, want %#x", name, g.Seed(), eager.Seed())
		}
		if got := draws(g); got != want {
			t.Fatalf("%s: draws %v, want %v", name, got, want)
		}
	}
}
