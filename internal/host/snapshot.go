package host

import "injectable/internal/sim"

// Snapshot is an immutable capture of a World's complete simulation state:
// the scheduler (event heap, free list, generations), every random stream's
// position, the medium's in-flight transmissions and caches, all device
// link-layer and clock state, the observability hub, and every extra root
// registered with AddSnapshotRoot. Create with World.Snapshot, roll back
// with World.Fork.
type Snapshot struct {
	w   *World
	cap *sim.Capture
}

// AddSnapshotRoot registers extra objects a Snapshot must capture. The
// snapshot engine reaches state through struct fields, slices, maps and
// interfaces — but not through callback closures, so any stateful object
// attached to the world only via callbacks (Peripheral/Central wrappers,
// device models, attacker tooling) must be registered here before
// Snapshot is taken. Each root must be a pointer.
func (w *World) AddSnapshotRoot(roots ...any) {
	w.roots = append(w.roots, roots...)
}

// SnapshotRoots returns the roots a Snapshot captures: the world itself,
// every device, and every root registered with AddSnapshotRoot.
func (w *World) SnapshotRoots() []any {
	roots := make([]any, 0, 1+len(w.devices)+len(w.roots))
	roots = append(roots, w)
	for _, d := range w.devices {
		roots = append(roots, d)
	}
	return append(roots, w.roots...)
}

// Snapshot deep-captures the world. The capture is cheap relative to the
// warm-up it amortises (one typed copy per reachable object) and does not
// disturb the world: simulation can continue immediately.
func (w *World) Snapshot() *Snapshot {
	return &Snapshot{w: w, cap: sim.CaptureRoots(w.SnapshotRoots()...)}
}

// Fork rolls this world back to the snapshot, beginning a new timeline
// from the captured instant. Forking is restore-in-place: scheduled
// callbacks close over this world's object graph, so a snapshot can only
// ever be resumed inside the world it was taken from (parallel trials each
// warm their own world — the campaign engine keeps one per worker). Events
// scheduled and state mutated after the snapshot are discarded; EventRefs
// issued before it become valid again. Fork may be called any number of
// times on the same snapshot.
func (w *World) Fork(s *Snapshot) {
	if s.w != w {
		panic("host: forking a snapshot taken from a different world")
	}
	s.cap.Restore()
}

// RekeyStreams deterministically reseeds every random stream of the world
// — the world stream and every stream derived from it: the medium's,
// per-device, clock and SMP streams, including any held by registered
// snapshot roots — deriving each stream's new seed from its own
// construction seed and salt. It walks the world stream's registry
// (sim.RNG.Streams), which the snapshot rolls back with the rest of the
// world, so it costs one seed derivation per stream; a stream is seeded
// only when next drawn. Two worlds with identical stream identities
// rekeyed with the same salt produce identical subsequent draws, which is
// what makes a forked trial byte-identical to a fresh world warmed the
// same way and rekeyed with the same salt. Call it immediately after Fork
// to give each forked trial independent randomness.
func (w *World) RekeyStreams(salt uint64) {
	for _, g := range w.RNG.Streams() {
		g.Rekey(salt)
	}
}
