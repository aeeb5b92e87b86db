package sim

import (
	"reflect"
	"testing"
)

// drainLog runs the scheduler to completion and returns the order and
// times of executed events via the shared log slice.
func TestSchedulerSnapshotRestoreReplaysIdentically(t *testing.T) {
	s := NewScheduler()
	var log []string
	mark := func(name string) func() { return func() { log = append(log, name) } }
	s.At(10, "a", mark("a"))
	s.At(20, "b", mark("b"))
	s.At(20, "c", mark("c")) // FIFO tie with b
	s.Step()                 // run "a" so the free list is non-empty

	snap := s.Snapshot()
	ran0, now0, pending0 := s.Processed(), s.Now(), s.Pending()

	s.After(5, "d", mark("d"))
	s.Run()
	first := append([]string(nil), log...)

	s.Restore(snap)
	if s.Processed() != ran0 || s.Now() != now0 || s.Pending() != pending0 {
		t.Fatalf("restore: ran=%d now=%v pending=%d, want %d %v %d",
			s.Processed(), s.Now(), s.Pending(), ran0, now0, pending0)
	}
	log = log[:1] // keep "a", replay the rest
	s.After(5, "d", mark("d"))
	s.Run()
	if !reflect.DeepEqual(log, first) {
		t.Fatalf("replay order %v != first run %v", log, first)
	}
}

func TestSchedulerSnapshotDropsPostSnapshotEvents(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, "pre", func() { fired++ })
	snap := s.Snapshot()
	s.At(5, "post", func() { fired += 100 })
	s.Restore(snap)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired=%d, want 1 (post-snapshot event must be dropped)", fired)
	}
}

func TestSchedulerSnapshotRevivesEventRefs(t *testing.T) {
	s := NewScheduler()
	ref := s.At(10, "ev", func() {})
	snap := s.Snapshot()
	s.Run()
	if ref.Pending() {
		t.Fatal("ref still pending after run")
	}
	s.Restore(snap)
	if !ref.Pending() || ref.At() != 10 || ref.Label() != "ev" {
		t.Fatalf("restored ref: pending=%t at=%v label=%q", ref.Pending(), ref.At(), ref.Label())
	}
	// Cancelling the revived ref must suppress the replayed event.
	s.Cancel(ref)
	s.Run()
}

func TestSchedulerRestoreForeignSnapshotPanics(t *testing.T) {
	a, b := NewScheduler(), NewScheduler()
	snap := a.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic restoring a foreign snapshot")
		}
	}()
	b.Restore(snap)
}

func TestRNGSnapshotRestoreReplaysStream(t *testing.T) {
	g := NewRNG(42)
	g.Float64() // advance off the seed state
	var buf [16]byte
	g.Bytes(buf[:]) // engage Read state (readVal/readPos)

	snap := g.Snapshot()
	draw := func() [6]uint64 {
		var out [6]uint64
		out[0] = g.Uint64()
		out[1] = uint64(g.Intn(1000))
		out[2] = uint64(int64(g.NormFloat64() * 1e6))
		out[3] = uint64(g.Duration(Second))
		var b [3]byte
		g.Bytes(b[:])
		out[4] = uint64(b[0])<<16 | uint64(b[1])<<8 | uint64(b[2])
		out[5] = uint64(int64(g.Float64() * 1e9))
		return out
	}
	first := draw()
	g.Restore(snap)
	if second := draw(); second != first {
		t.Fatalf("replayed draws %v != first draws %v", second, first)
	}
}

func TestRNGSnapshotBeforeFirstDrawReplaysFreshStream(t *testing.T) {
	fresh := NewRNG(21).Child("dev")
	rekeyed := NewRNG(21).Child("dev")
	rekeyed.Uint64() // the generator exists but waits to be reseeded
	rekeyed.Rekey(5)
	for name, g := range map[string]*RNG{"fresh": fresh, "rekeyed": rekeyed} {
		snap := g.Snapshot()
		first := [3]uint64{g.Uint64(), g.Uint64(), g.Uint64()}
		g.Restore(snap)
		ref := NewRNG(g.Seed())
		for i := 0; i < 3; i++ {
			got, want := g.Uint64(), ref.Uint64()
			if got != want || got != first[i] {
				t.Fatalf("%s: draw %d after restore = %d, want %d (NewRNG) and %d (before restore)",
					name, i, got, want, first[i])
			}
		}
	}
}

func TestRNGSnapshotRollsBackRegistry(t *testing.T) {
	root := NewRNG(1)
	a := root.Child("a")
	snap := root.Snapshot()
	root.Child("b")
	a.ChildN("c", 1)
	if n := len(root.Streams()); n != 4 {
		t.Fatalf("%d streams before restore, want 4", n)
	}
	root.Restore(snap)
	if s := root.Streams(); len(s) != 2 || s[0] != root || s[1] != a {
		t.Fatalf("restored registry has %d streams, want the root and a", len(s))
	}
}

func TestRNGReseedMatchesFreshStream(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		g.Uint64()
	}
	var buf [5]byte
	g.Bytes(buf[:]) // leave partial Read state that Reseed must clear
	g.Reseed(12345)

	fresh := NewRNG(12345)
	if g.Seed() != fresh.Seed() {
		t.Fatalf("seed=%d, want %d", g.Seed(), fresh.Seed())
	}
	for i := 0; i < 50; i++ {
		if a, b := g.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %d != fresh %d", i, a, b)
		}
	}
	g.Bytes(buf[:])
	var want [5]byte
	fresh.Bytes(want[:])
	if buf != want {
		t.Fatalf("reseeded Bytes %v != fresh %v", buf, want)
	}
}

func TestRNGRekeyIsOrderIndependent(t *testing.T) {
	a1, a2 := NewRNG(1), NewRNG(2)
	b1, b2 := NewRNG(1), NewRNG(2)
	a1.Rekey(99)
	a2.Rekey(99)
	b2.Rekey(99) // opposite visit order
	b1.Rekey(99)
	if a1.Seed() != b1.Seed() || a2.Seed() != b2.Seed() {
		t.Fatal("rekey result depends on visit order")
	}
	if a1.Seed() == a2.Seed() {
		t.Fatal("distinct streams rekeyed to the same seed")
	}
	if a1.Uint64() != b1.Uint64() {
		t.Fatal("rekeyed streams diverge")
	}
}

func TestClockStateIsCapturedWithScheduler(t *testing.T) {
	s := NewScheduler()
	rng := NewRNG(3)
	c := NewClock(s, rng.Child("clock"), ClockConfig{RatedPPM: 50, JitterStdDev: Microsecond})

	// Capture scheduler + clock together, as a world snapshot would.
	cap := CaptureRoots(s, c)
	fired := 0
	c.AfterLocal(Millisecond, "tick", func() { fired++ })
	s.Run()
	t1 := s.Now()

	cap.Restore()
	c.AfterLocal(Millisecond, "tick", func() { fired++ })
	s.Run()
	if s.Now() != t1 {
		t.Fatalf("replayed wakeup at %v, want %v (jitter draw must replay)", s.Now(), t1)
	}
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
}
