package sim

import "sync"

// Arena recycles simulation-kernel memory across consecutive short-lived
// worlds, so a campaign running thousands of trials on one worker stops
// paying per-trial allocation and GC for scheduler events, the event heap
// and radio-frame scratch buffers.
//
// An arena backs at most one live world at a time: calling NewScheduler
// reclaims everything handed out for the previous scheduler (its queued
// event structs, its heap backing array and the byte arena's chunks), so
// the caller must be completely done with the previous world — including
// anything that aliases arena-backed memory, such as received frame PDUs —
// before building the next one. A campaign worker holds one arena for its
// whole run, which satisfies this by construction: a worker finishes trial
// N before starting trial N+1.
//
// Arenas outlive the runs that use them: TakeArena hands out an arena from
// a process-wide free list and ReturnArena puts it back, releasing its last
// world first, so consecutive campaigns (a daemon's jobs) reuse the same
// event structs and byte chunks. An arena must be returned only once no
// goroutine can touch it again; an arena an abandoned goroutine may still
// write to (a timed-out trial's) is dropped, never returned.
//
// Arenas are not safe for concurrent use. Reuse never changes observable
// behaviour: recycled buffers are fully reinitialised before handing out,
// and no RNG state lives in the arena.
type Arena struct {
	prev  *Scheduler
	bytes ByteArena
	// free and heap hold a released world's recycled events and heap
	// backing until the next NewScheduler takes them over.
	free *event
	heap []*event
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewScheduler returns a fresh scheduler backed by the arena, first
// releasing the previous world (see Release) and handing its recycled
// events and heap backing to the new scheduler. The previously returned
// scheduler and anything holding arena-backed memory must no longer be in
// use.
func (a *Arena) NewScheduler() *Scheduler {
	a.Release()
	s := NewScheduler()
	s.free, s.heap = a.free, a.heap
	a.free, a.heap = nil, nil
	a.prev = s
	return s
}

// Release retires the arena's last world without building a new one:
// every event still queued in its scheduler joins the arena's free list
// (recycle drops their callbacks, so retained closures are released), the
// scheduler lets go of its heap and free list, and the byte arena resets.
// A released arena references no scheduler, callback or world object.
func (a *Arena) Release() {
	if p := a.prev; p != nil {
		for _, e := range p.heap {
			p.recycle(e)
		}
		a.free, a.heap = p.free, p.heap[:0]
		p.heap, p.free = nil, nil
		a.prev = nil
	}
	a.bytes.Reset()
}

// Bytes returns the arena's byte allocator (reset on every NewScheduler).
func (a *Arena) Bytes() *ByteArena { return &a.bytes }

// arenas is the process-wide free list behind TakeArena and ReturnArena.
var arenas freeList[*Arena]

// TakeArena returns an arena from the process-wide free list, or a new
// one when the list is empty. Hand it back with ReturnArena.
func TakeArena() *Arena {
	if a, ok := arenas.get(); ok {
		return a
	}
	return NewArena()
}

// ReturnArena releases a's last world and puts a on the free list for a
// later TakeArena, keeping one byte chunk: the chunks a long world filled
// (a 90 s fleet of advertisers fills four) would otherwise stay resident
// for good. The caller must be done with a and with everything built on
// it, and no other goroutine may still use it.
func ReturnArena(a *Arena) {
	a.Release()
	clear(a.bytes.spare)
	a.bytes.spare = a.bytes.spare[:0]
	arenas.put(a)
}

// freeList is a mutex-guarded stack of reusable values. Unlike sync.Pool
// it is never drained by the garbage collector, so what a steady workload
// allocates does not depend on GC timing; it holds at most as many values
// as were ever out at once.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

func (f *freeList[T]) get() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.items); n > 0 {
		v, ok = f.items[n-1], true
		var zero T
		f.items[n-1] = zero
		f.items = f.items[:n-1]
	}
	return v, ok
}

func (f *freeList[T]) put(v T) {
	f.mu.Lock()
	f.items = append(f.items, v)
	f.mu.Unlock()
}

// byteArenaChunk is the allocation granularity of a ByteArena. Frame PDUs
// are tens of bytes, so one chunk amortises thousands of clones.
const byteArenaChunk = 64 << 10

// ByteArena is a bump allocator for short-lived byte buffers (radio-frame
// PDU clones). Alloc never zeroes and never frees individually; Reset
// retires every allocation at once while keeping the chunks for reuse. The
// zero value is ready to use.
type ByteArena struct {
	cur    arenaChunk   // active chunk; len = bytes used
	spare  []arenaChunk // retired chunks kept across Reset for reuse
	filled []arenaChunk // chunks filled since the last Reset
}

// arenaChunk is one chunk of a ByteArena, its len the bytes handed out.
// The state engine captures a chunk only up to len: Alloc's callers write
// every byte past it before anything reads it.
type arenaChunk []byte

// NewByteArena returns an empty byte arena.
func NewByteArena() *ByteArena { return &ByteArena{} }

// Alloc returns an uninitialised n-byte slice carved from the arena. The
// slice is valid until Reset. Requests larger than the chunk size get a
// dedicated allocation.
func (a *ByteArena) Alloc(n int) []byte {
	if n > byteArenaChunk {
		return make([]byte, n)
	}
	if cap(a.cur)-len(a.cur) < n {
		if a.cur != nil {
			a.filled = append(a.filled, a.cur)
		}
		if k := len(a.spare); k > 0 {
			a.cur = a.spare[k-1][:0]
			a.spare[k-1] = nil
			a.spare = a.spare[:k-1]
		} else {
			a.cur = make([]byte, 0, byteArenaChunk)
		}
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off+n : off+n]
}

// Copy clones b into the arena.
func (a *ByteArena) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := a.Alloc(len(b))
	copy(c, b)
	return c
}

// Reset retires every allocation, keeping chunk memory for reuse. All
// slices previously returned by Alloc/Copy become invalid.
func (a *ByteArena) Reset() {
	for i, c := range a.filled {
		a.spare = append(a.spare, c[:0])
		a.filled[i] = nil
	}
	a.filled = a.filled[:0]
	if a.cur != nil {
		a.cur = a.cur[:0]
	}
}
