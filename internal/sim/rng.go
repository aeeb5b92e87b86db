package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random stream. Components derive their own child
// streams by name so that adding randomness consumption to one component
// does not perturb the draws seen by another — a property the experiment
// harness relies on for reproducible sweeps.
//
// Every stream derived by Child/ChildN joins a registry shared with its
// root (the stream NewRNG returned), and Streams lists it. A world rekeys
// its streams by walking that registry, and a snapshot captures the
// registry with the rest of the world, so streams derived after the
// snapshot leave the registry again on restore.
//
// A stream seeds its generator on its first draw, not when it is created
// or reseeded: NewRNG, Reseed and Rekey only record the seed. A stream
// that is never drawn from — a world's root, a seed-only derivation chain
// — never pays for seeding. The generator is math/rand's, reimplemented
// (alfg) so that it needs no register for the first 273 draws after a
// seeding and builds its 607-word register on draw 274: a stream drawn
// fewer times never holds one. The RNG holds the rand.Rand and the alfg by
// value, so a first draw allocates nothing. The draws are exactly those of
// rand.New(rand.NewSource(seed)) seeded eagerly, and rand.Rand still turns
// them into Float64, NormFloat64, Intn and the rest.
//
// An RNG must not be copied: its rand.Rand points at its own alfg, so a
// copy would draw from the original's generator. Use the *RNG that NewRNG,
// Child and ChildN return.
//
// An RNG is NOT goroutine-safe: concurrent draws from one stream race and
// destroy reproducibility. Child/ChildN write to the root's registry, so
// deriving from a stream follows the same rule as drawing from it: streams
// of one family belong to one goroutine at a time. Concurrent consumers
// each derive from a root of their own — the campaign engine derives every
// trial's seed from a per-call temporary root keyed by (seed base, point,
// trial index), and every other root outside a world is such a temporary.
type RNG struct {
	seed uint64
	// seeded reports that the generator is positioned in seed's sequence;
	// NewRNG, Reseed and Rekey leave it false so the next draw seeds it
	// first.
	seeded bool
	// r is the generator's distribution layer and a its source. r is zero
	// until the stream's first draw points it at a.
	r rand.Rand
	a alfg
	// reg is the registry shared by the root and every stream derived
	// from it; nil until the root derives its first stream.
	reg *rngRegistry
}

// rngRegistry lists a root stream and every stream derived from it, in
// derivation order.
type rngRegistry struct {
	streams []*RNG
}

// NewRNG returns a stream seeded with seed. It is the root of a new
// registry.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed}
}

// Child derives an independent stream from this stream's seed and a name.
// Calling Child never consumes randomness from the parent.
func (g *RNG) Child(name string) *RNG {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(g.seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	return g.derive(h.Sum64())
}

// ChildN derives an independent stream from this stream's seed, a name and
// an index — Child for indexed families (trial i of a sweep point, device
// i of a fleet). Like Child it is a pure function of (seed, name, n): it
// never consumes randomness from the parent, and the derivation (FNV-1a
// over the seed, the name and the little-endian index) is stable across Go
// versions.
func (g *RNG) ChildN(name string, n int) *RNG {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(g.seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(n) >> (8 * i))
	}
	_, _ = h.Write(b[:])
	return g.derive(h.Sum64())
}

// derive returns a new stream with the given seed, registered with g's
// root.
func (g *RNG) derive(seed uint64) *RNG {
	reg := g.registry()
	c := &RNG{seed: seed, reg: reg}
	reg.streams = append(reg.streams, c)
	return c
}

// registryCap is a new registry's initial capacity: room for a trial
// world's streams (nine, and two per bystander peripheral) without
// regrowing.
const registryCap = 16

// registry returns g's registry, creating it when g is a root that has
// derived nothing yet.
func (g *RNG) registry() *rngRegistry {
	if g.reg == nil {
		streams := make([]*RNG, 1, registryCap)
		streams[0] = g
		g.reg = &rngRegistry{streams: streams}
	}
	return g.reg
}

// Streams returns every stream of g's registry — the root first, then
// every stream derived from it by Child/ChildN, in derivation order — each
// exactly once. The slice aliases the registry: callers must not modify
// it, and streams derived later are not in it.
func (g *RNG) Streams() []*RNG { return g.registry().streams }

// Seed returns the seed of this stream.
func (g *RNG) Seed() uint64 { return g.seed }

// src returns the generator, seeding it first if this is the stream's
// first draw since construction or the last Reseed.
func (g *RNG) src() *rand.Rand {
	if !g.seeded {
		g.seedSource()
	}
	return &g.r
}

// seedSource positions the generator at the start of seed's sequence.
// Seeding only reduces the seed and resets rand.Rand's Read position;
// alfg builds a register only if the stream is drawn past 273 times.
func (g *RNG) seedSource() {
	g.r = *rand.New(&g.a)
	g.a.Seed(int64(g.seed))
	g.seeded = true
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Uint32 returns a uniform 32-bit value.
func (g *RNG) Uint32() uint32 { return g.src().Uint32() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src().Uint64() }

// Bytes fills b with random bytes.
func (g *RNG) Bytes(b []byte) {
	_, _ = g.src().Read(b)
}

// Duration returns a uniform duration in [0, d).
func (g *RNG) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(g.src().Int63n(int64(d)))
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.src().NormFloat64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.src().Float64() < p }
