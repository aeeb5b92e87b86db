package sim

import "fmt"

// event is one scheduled callback. Events are owned by their Scheduler and
// recycled through a free list once they run or a cancelled entry is popped;
// user code refers to them only through generation-checked EventRefs, so a
// stale reference can never touch a recycled (and possibly rescheduled)
// struct.
type event struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among events at the same instant
	fn     func()
	argFn  func(any) // set instead of fn by AtArg, which runs argFn(arg)
	arg    any
	label  string
	gen    uint32 // incremented on recycle; EventRefs must match to act
	cancel bool
	next   *event // free-list link
}

// EventRef is a handle to a scheduled event. The zero EventRef is valid and
// refers to nothing (Cancel is a no-op on it). A ref goes stale once its
// event runs or its cancelled slot is reclaimed; stale refs are inert — all
// methods return zero values and Cancel does nothing — so holding a ref
// past an event's lifetime is always safe.
type EventRef struct {
	e   *event
	gen uint32
}

// live reports whether the ref still addresses its original scheduling.
func (r EventRef) live() bool { return r.e != nil && r.e.gen == r.gen }

// At returns the instant the event is scheduled for, or 0 if the ref is
// stale (the event already ran or was reclaimed).
func (r EventRef) At() Time {
	if !r.live() {
		return 0
	}
	return r.e.at
}

// Label returns the label given at scheduling time, or "" for a stale ref.
func (r EventRef) Label() string {
	if !r.live() {
		return ""
	}
	return r.e.label
}

// Cancelled reports whether Cancel hit this scheduling before it ran. Once
// the event is reclaimed (it ran, or its cancelled slot was popped) the ref
// is stale and Cancelled reports false.
func (r EventRef) Cancelled() bool { return r.live() && r.e.cancel }

// Pending reports whether the event is still scheduled to run: live and
// not cancelled.
func (r EventRef) Pending() bool { return r.live() && !r.e.cancel }

// Scheduler is a deterministic single-threaded discrete-event scheduler.
// Events scheduled for the same instant run in FIFO order. The zero value
// is ready to use.
//
// The event queue is an inlined 4-ary min-heap over a slice of recycled
// event structs: scheduling and stepping allocate nothing in steady state
// (no container/heap interface boxing, no per-event garbage). Cancellation
// is lazy — a cancelled event stays queued until its instant is reached and
// is skipped and reclaimed then — which is why Pending() counts cancelled
// events that have not yet been popped.
//
// The scheduler's own bookkeeping is allocation-free, but a callback is
// not: a closure or a method value built at the call site is a heap object
// per event. Hot-path components therefore bind each callback once — a
// method value stored in a field when the component is built — and keep
// the per-event state it needs in fields, not in captured locals. AtArg
// covers the one case a field cannot: a callback whose subject differs per
// event (the medium's per-transmission lock and rx-complete handlers)
// takes it as a pointer argument. The same pattern is what makes that
// state visible to snapshot and restore (see state.go).
type Scheduler struct {
	now    Time
	heap   []*event // 4-ary min-heap ordered by (at, seq)
	seq    uint64
	halted bool
	ran    uint64
	free   *event // recycled events
}

// NewScheduler returns an empty scheduler positioned at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting to run (including cancelled
// events that have not yet been popped).
func (s *Scheduler) Pending() int { return len(s.heap) }

// Processed returns the total number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.ran }

// alloc takes an event from the free list or the heap allocator.
func (s *Scheduler) alloc() *event {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &event{}
}

// recycle returns a popped event to the free list, invalidating every
// EventRef issued for it and releasing its callback.
func (s *Scheduler) recycle(e *event) {
	e.gen++
	e.fn, e.argFn, e.arg = nil, nil, nil
	e.label = ""
	e.cancel = false
	e.next = s.free
	s.free = e
}

// At schedules fn to run at the absolute instant t. Scheduling in the past
// panics: it is always a logic error in a discrete-event model.
func (s *Scheduler) At(t Time, label string, fn func()) EventRef {
	e := s.schedule(t, label)
	e.fn = fn
	return EventRef{e: e, gen: e.gen}
}

// AtArg schedules fn(arg) at the absolute instant t. It orders exactly
// like At. With fn bound once and arg a pointer, arming the event
// allocates nothing: a pointer stored in an interface is not boxed.
func (s *Scheduler) AtArg(t Time, label string, fn func(any), arg any) EventRef {
	e := s.schedule(t, label)
	e.argFn, e.arg = fn, arg
	return EventRef{e: e, gen: e.gen}
}

// schedule queues a recycled event at t, leaving its callback to the
// caller.
func (s *Scheduler) schedule(t Time, label string) *event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", label, t, s.now))
	}
	s.seq++
	e := s.alloc()
	e.at, e.seq, e.label = t, s.seq, label
	s.push(e)
	return e
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d Duration, label string, fn func()) EventRef {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), label, fn)
}

// Cancel prevents a scheduled event from running. Cancelling a stale ref —
// the event already ran, was already reclaimed, or the ref is zero — is a
// no-op, as is cancelling twice.
func (s *Scheduler) Cancel(ref EventRef) {
	if !ref.live() {
		return
	}
	ref.e.cancel = true
}

// less orders events by (at, seq).
func less(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push appends e and sifts it up the 4-ary heap.
func (s *Scheduler) push(e *event) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = e
}

// pop removes and returns the minimum event. The heap must be non-empty.
func (s *Scheduler) pop() *event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = nil
	s.heap = h[:n]
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root.
	h = s.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return top
}

// peek discards (and reclaims) cancelled events at the top of the heap and
// returns the next runnable event without removing it, or nil.
func (s *Scheduler) peek() *event {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if !e.cancel {
			return e
		}
		s.recycle(s.pop())
	}
	return nil
}

// Step runs the single next event. It reports false when the queue is empty
// or the scheduler has been halted.
func (s *Scheduler) Step() bool {
	if s.halted || s.peek() == nil {
		return false
	}
	e := s.pop()
	if e.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", e.at, s.now))
	}
	s.now = e.at
	s.ran++
	fn, argFn, arg := e.fn, e.argFn, e.arg
	s.recycle(e)
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains or the scheduler halts.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline. The clock is advanced to
// the deadline afterwards, even if the queue drained earlier.
func (s *Scheduler) RunUntil(deadline Time) {
	for !s.halted {
		e := s.peek()
		if e == nil || e.at > deadline {
			break
		}
		s.Step()
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for a span d of virtual time from now.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Halt stops the scheduler: Step/Run/RunUntil return immediately afterwards.
func (s *Scheduler) Halt() { s.halted = true }

// Halted reports whether Halt has been called.
func (s *Scheduler) Halted() bool { return s.halted }
