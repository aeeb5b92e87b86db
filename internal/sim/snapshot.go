package sim

import "hash/fnv"

// SchedulerSnapshot is a restorable capture of a scheduler: its clock, the
// event heap (including each queued event's callback, label and
// generation), the free list and the processed/sequence counters.
type SchedulerSnapshot struct {
	s   *Scheduler
	cap *Capture
}

// Snapshot captures the scheduler's complete state. Events scheduled after
// the snapshot are dropped by Restore; events that ran after the snapshot
// are re-queued exactly as they were, and EventRefs issued before the
// snapshot become valid again (generations are restored with the events).
func (s *Scheduler) Snapshot() *SchedulerSnapshot {
	return &SchedulerSnapshot{s: s, cap: CaptureRoots(s)}
}

// Restore rolls the scheduler back to the snapshot. The snapshot must have
// been taken from this scheduler; restoring a foreign snapshot panics,
// because queued callbacks close over their own world's object graph.
func (s *Scheduler) Restore(snap *SchedulerSnapshot) {
	if snap.s != s {
		panic("sim: restoring a snapshot taken from a different scheduler")
	}
	snap.cap.Restore()
}

// RNGSnapshot is a restorable capture of one random stream's position.
type RNGSnapshot struct {
	g   *RNG
	cap *Capture
}

// Snapshot captures the stream's exact position: the underlying generator
// state is saved, so draws after Restore replay the identical sequence the
// stream produced after the snapshot was taken. The stream's registry is
// captured with it, and through it every stream of the same family.
func (g *RNG) Snapshot() *RNGSnapshot {
	return &RNGSnapshot{g: g, cap: CaptureRoots(g)}
}

// Restore rolls the stream back to the snapshot position. The snapshot
// must have been taken from this stream.
func (g *RNG) Restore(snap *RNGSnapshot) {
	if snap.g != g {
		panic("sim: restoring a snapshot taken from a different RNG")
	}
	snap.cap.Restore()
}

// Reseed re-initialises the stream in place to the exact state NewRNG(seed)
// would produce, without replacing the *RNG object — every component
// holding this stream sees the new sequence. This is how a forked world is
// given fresh per-trial randomness after a snapshot restore. Like NewRNG
// it only records the seed; the next draw seeds the generator.
func (g *RNG) Reseed(seed uint64) {
	g.seed = seed
	g.seeded = false
}

// Rekey reseeds the stream with a seed derived from its own current seed
// and salt (FNV-1a, like Child). Because the derivation depends only on
// the stream's identity — its construction seed — and the salt, rekeying
// every stream of a world gives a deterministic result independent of the
// order the streams are visited in.
func (g *RNG) Rekey(salt uint64) {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(g.seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte("rekey"))
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * i))
	}
	_, _ = h.Write(b[:])
	g.Reseed(h.Sum64())
}
