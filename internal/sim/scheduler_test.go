package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*Time(Microsecond), "c", func() { got = append(got, 3) })
	s.At(10*Time(Microsecond), "a", func() { got = append(got, 1) })
	s.At(20*Time(Microsecond), "b", func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(Microsecond) {
		t.Errorf("Now = %v, want 30µs", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Time(Microsecond), "e", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.After(Microsecond, "outer", func() {
		s.After(2*Microsecond, "inner", func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 1 || fired[0] != Time(3*Microsecond) {
		t.Fatalf("inner fired at %v, want 3µs", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.After(Microsecond, "x", func() { ran = true })
	if !e.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	s.Cancel(e)
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Cancelling again — and cancelling a zero ref — must be no-ops.
	s.Cancel(e)
	s.Cancel(EventRef{})
}

func TestSchedulerStaleRefIsInert(t *testing.T) {
	s := NewScheduler()
	e := s.After(Microsecond, "ran", func() {})
	s.Run()
	// The event ran: its ref is stale and every accessor is inert.
	if e.Pending() || e.Cancelled() {
		t.Fatal("stale ref not inert")
	}
	if e.At() != 0 || e.Label() != "" {
		t.Fatalf("stale ref leaked data: at=%v label=%q", e.At(), e.Label())
	}
	s.Cancel(e) // must not disturb later events
	ran := false
	f := s.After(Microsecond, "later", func() { ran = true })
	s.Cancel(e) // stale ref again, now that the struct is re-used
	s.Run()
	if !ran {
		t.Fatal("stale Cancel hit a recycled event")
	}
	_ = f
}

func TestSchedulerEventRefAccessors(t *testing.T) {
	s := NewScheduler()
	e := s.At(Time(5*Microsecond), "probe", func() {})
	if e.At() != Time(5*Microsecond) {
		t.Fatalf("At = %v", e.At())
	}
	if e.Label() != "probe" {
		t.Fatalf("Label = %q", e.Label())
	}
}

func TestSchedulerCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var got []string
	a := s.At(Time(Microsecond), "a", func() { got = append(got, "a") })
	s.At(Time(2*Microsecond), "b", func() { got = append(got, "b") })
	c := s.At(Time(3*Microsecond), "c", func() { got = append(got, "c") })
	s.Cancel(a)
	s.Cancel(c)
	s.Run()
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v, want [b]", got)
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	s.After(10*Microsecond, "later", func() {})
	s.RunUntil(Time(5 * Microsecond))
	if s.Now() != Time(5*Microsecond) {
		t.Fatalf("Now = %v, want 5µs", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.RunFor(10 * Microsecond)
	if s.Pending() != 0 {
		t.Fatal("event did not run")
	}
}

func TestSchedulerHalt(t *testing.T) {
	s := NewScheduler()
	n := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*Time(Microsecond), "e", func() {
			n++
			if n == 2 {
				s.Halt()
			}
		})
	}
	s.Run()
	if n != 2 {
		t.Fatalf("ran %d events after halt, want 2", n)
	}
	if !s.Halted() {
		t.Fatal("not halted")
	}
}

func TestSchedulerPanicsOnPastEvent(t *testing.T) {
	s := NewScheduler()
	s.After(10*Microsecond, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		s.At(Time(Microsecond), "past", func() {})
	})
	s.Run()
}

func TestSchedulerNegativeAfterClamped(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.After(-5*Microsecond, "neg", func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative-delay event dropped")
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i)*Time(Microsecond), "e", func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// Property: for any set of event offsets, execution order is sorted by time.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, o := range offsets {
			s.At(Time(o)*Time(Microsecond), "e", func() {
				seen = append(seen, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refModel is a naive sorted-slice reference scheduler: schedule keeps the
// slice ordered by (at, seq); run pops the head. It is the executable spec
// the 4-ary heap is tested against.
type refModel struct {
	events []refEvent
	seq    uint64
	now    Time
}

type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

func (m *refModel) schedule(at Time, id int) uint64 {
	m.seq++
	e := refEvent{at: at, seq: m.seq, id: id}
	i := sort.Search(len(m.events), func(i int) bool {
		o := m.events[i]
		return o.at > e.at || (o.at == e.at && o.seq > e.seq)
	})
	m.events = append(m.events, refEvent{})
	copy(m.events[i+1:], m.events[i:])
	m.events[i] = e
	return e.seq
}

func (m *refModel) cancel(seq uint64) {
	for i := range m.events {
		if m.events[i].seq == seq {
			m.events[i].cancelled = true
		}
	}
}

func (m *refModel) run() []int {
	var order []int
	for _, e := range m.events {
		if !e.cancelled {
			m.now = e.at
			order = append(order, e.id)
		}
	}
	m.events = nil
	return order
}

// TestSchedulerMatchesReferenceModel drives the 4-ary heap scheduler and
// the sorted-slice reference through the same randomized sequence of
// schedule / cancel / re-schedule operations and requires identical
// execution order — the property that keeps RNG draw order, and therefore
// every experiment table, byte-identical across scheduler rewrites.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		s := NewScheduler()
		ref := &refModel{}
		var got []int
		type handle struct {
			ref EventRef
			seq uint64
		}
		var handles []handle
		n := 1 + rng.Intn(60)
		for op := 0; op < n; op++ {
			switch {
			case len(handles) > 0 && rng.Intn(4) == 0:
				// Cancel a random earlier event (possibly twice).
				h := handles[rng.Intn(len(handles))]
				s.Cancel(h.ref)
				ref.cancel(h.seq)
			default:
				id := op
				at := Time(rng.Intn(50)) * Time(Microsecond)
				ev := s.At(at, "e", func() { got = append(got, id) })
				seq := ref.schedule(at, id)
				handles = append(handles, handle{ev, seq})
				if rng.Intn(8) == 0 {
					// Immediately cancel and re-schedule at a new time:
					// the recycled struct must not resurrect the old ref.
					s.Cancel(ev)
					ref.cancel(seq)
					at2 := Time(rng.Intn(50)) * Time(Microsecond)
					ev2 := s.At(at2, "r", func() { got = append(got, -id) })
					seq2 := ref.schedule(at2, -id)
					handles = append(handles, handle{ev2, seq2})
				}
			}
		}
		s.Run()
		want := ref.run()
		if len(got) != len(want) {
			t.Fatalf("round %d: ran %d events, want %d\ngot %v\nwant %v",
				round, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: order mismatch at %d\ngot %v\nwant %v", round, i, got, want)
			}
		}
		if s.now != ref.now && len(want) > 0 {
			t.Fatalf("round %d: clock %v, want %v", round, s.now, ref.now)
		}
	}
}

// TestSchedulerFreeListReuse checks that events are recycled through the
// free list and that recycling invalidates old refs.
func TestSchedulerFreeListReuse(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		s.After(Microsecond, "warm", func() {})
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.After(Microsecond, "steady", func() {})
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At+Step allocates %v per run, want 0", allocs)
	}
}

// argCounter is a bound-once AtArg target: its handler is a method value
// built once, and the event's subject travels as the argument.
type argCounter struct {
	log   []int
	bumpF func(any)
}

type argSubject struct{ id int }

func (c *argCounter) bump(arg any) { c.log = append(c.log, arg.(*argSubject).id) }

// TestSchedulerAtArgOrdersWithAt: AtArg events share At's (at, seq) order,
// FIFO among events at one instant whichever form armed them, and run
// their bound handler with the argument they were armed with.
func TestSchedulerAtArgOrdersWithAt(t *testing.T) {
	s := NewScheduler()
	c := &argCounter{}
	c.bumpF = c.bump
	s.AtArg(20, "arg-1", c.bumpF, &argSubject{1})
	s.At(10, "plain-0", func() { c.log = append(c.log, 0) })
	s.At(20, "plain-2", func() { c.log = append(c.log, 2) })
	s.AtArg(20, "arg-3", c.bumpF, &argSubject{3})
	cancelled := s.AtArg(20, "arg-x", c.bumpF, &argSubject{99})
	s.Cancel(cancelled)
	s.Run()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(c.log, want) {
		t.Fatalf("ran %v, want %v", c.log, want)
	}
}

// TestSchedulerAtArgAllocatesNothing: a bound handler with a pointer
// argument arms and runs with no allocation, and recycling drops the
// argument so a reclaimed event holds nothing alive.
func TestSchedulerAtArgAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	c := &argCounter{log: make([]int, 0, 512)}
	c.bumpF = c.bump
	subj := &argSubject{7}
	s.AtArg(1, "warm", c.bumpF, subj)
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.AtArg(s.Now().Add(Microsecond), "steady", c.bumpF, subj)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state AtArg+Step allocates %v per run, want 0", allocs)
	}
	if e := s.free; e == nil || e.arg != nil || e.argFn != nil {
		t.Fatal("a recycled AtArg event still holds its handler or argument")
	}
}

// TestSchedulerAtArgSnapshotRestore: the argument is an interface field
// of the queued event, so a snapshot reaches the pointee and a restore
// rolls its state back before the replayed event reads it.
func TestSchedulerAtArgSnapshotRestore(t *testing.T) {
	s := NewScheduler()
	c := &argCounter{}
	c.bumpF = c.bump
	subj := &argSubject{1}
	s.AtArg(10, "arg", c.bumpF, subj)
	snap := s.Snapshot()
	subj.id = 2 // mutated after the capture, reachable only via the event
	s.Run()
	s.Restore(snap)
	s.Run()
	if want := []int{2, 1}; !reflect.DeepEqual(c.log, want) {
		t.Fatalf("ran %v, want %v (the replay must see the restored argument)", c.log, want)
	}
}

// TestArenaRecyclesQueuedAtArgEvents: an arena hands the events still
// queued in a dead scheduler to the next one. A recycled AtArg event must
// come back clean, or an At reusing it would run the stale handler.
func TestArenaRecyclesQueuedAtArgEvents(t *testing.T) {
	a := NewArena()
	s := a.NewScheduler()
	c := &argCounter{}
	c.bumpF = c.bump
	s.AtArg(10, "left-queued", c.bumpF, &argSubject{1})
	s = a.NewScheduler()
	ran := false
	s.At(10, "plain", func() { ran = true })
	s.Run()
	if !ran || len(c.log) != 0 {
		t.Fatalf("plain ran=%t, stale handler ran %v times", ran, len(c.log))
	}
}

// TestReturnedArenaHoldsNoWorld: an arena on the free list pins no dead
// world. Returning it recycles the events its last scheduler left queued,
// drops their callbacks, lets go of the scheduler itself and keeps one
// byte chunk of the two the world filled, and the next TakeArena hands
// the same arena out again.
func TestReturnedArenaHoldsNoWorld(t *testing.T) {
	a := TakeArena()
	s := a.NewScheduler()
	c := &argCounter{}
	c.bumpF = c.bump
	for i := 0; i < 5; i++ {
		s.AtArg(Time(10+i), "queued", c.bumpF, &argSubject{i})
		s.At(Time(20+i), "queued", func() { c.log = append(c.log, -1) })
	}
	a.Bytes().Alloc(byteArenaChunk - 50)
	a.Bytes().Alloc(100)
	ReturnArena(a)

	if a.prev != nil {
		t.Fatal("returned arena still references its last scheduler")
	}
	if len(a.heap) != 0 || s.Pending() != 0 {
		t.Fatalf("events still queued: arena heap %d, scheduler %d", len(a.heap), s.Pending())
	}
	free := 0
	for e := a.free; e != nil; e = e.next {
		if e.fn != nil || e.argFn != nil || e.arg != nil {
			t.Fatalf("free event %q keeps a callback or argument", e.label)
		}
		free++
	}
	if free != 10 {
		t.Fatalf("free list holds %d events, want the 10 left queued", free)
	}
	if len(a.bytes.cur) != 0 || cap(a.bytes.cur) != byteArenaChunk || len(a.bytes.filled) != 0 || len(a.bytes.spare) != 0 {
		t.Fatalf("byte arena holds %d spare and %d filled chunks and a current one of %d/%d bytes; want one empty chunk",
			len(a.bytes.spare), len(a.bytes.filled), len(a.bytes.cur), cap(a.bytes.cur))
	}

	b := TakeArena()
	defer ReturnArena(b)
	if b != a {
		t.Fatal("TakeArena did not hand out the returned arena")
	}
	s = b.NewScheduler()
	s.At(1, "plain", func() {})
	s.Run()
	if len(c.log) != 0 {
		t.Fatalf("a recycled event ran a stale callback %d times", len(c.log))
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(Milliseconds(2))
	if t0.Microseconds() != 2000 {
		t.Errorf("Microseconds = %d", t0.Microseconds())
	}
	if d := t0.Sub(Time(Microsecond)); d != Duration(1999*Microsecond) {
		t.Errorf("Sub = %v", d)
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Error("Before/After broken")
	}
	if s := Time(1234567 * int64(Microsecond)).String(); s != "1.234567s" {
		t.Errorf("String = %q", s)
	}
	if s := Microseconds(150).String(); s != "150µs" {
		t.Errorf("Duration.String = %q", s)
	}
	if s := Duration(1500).String(); s != "1.500µs" {
		t.Errorf("Duration.String sub-µs = %q", s)
	}
}
