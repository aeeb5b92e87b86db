package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"unsafe"
)

// This file is the generic state-capture engine behind world snapshot/fork:
// a reflection-based deep capture of every mutable object reachable from a
// set of root pointers, restorable in place.
//
// Capture walks the object graph through pointers, interfaces, slices,
// arrays and maps, taking a shallow typed copy of each visited object keyed
// by (address, type). Restore writes those copies back into the live
// objects, rolling the whole graph back to its capture-time state. Because
// the copies are typed and written back with reflect.Value.Set, the garbage
// collector sees every save and restore (write barriers included), and the
// copies themselves keep each captured object alive between Capture and the
// final Restore.
//
// What the engine deliberately does NOT do:
//
//   - It never looks inside function values. A closure's code pointer is
//     saved and restored as part of its owner's bytes — closures created
//     before the snapshot keep working after a restore because everything
//     they reference through struct fields is rolled back too — but a
//     mutable local captured ONLY by a closure is invisible to the walk and
//     will not be rolled back. Snapshot-compatible code must keep mutable
//     state in struct fields reachable from a root (internal/simtest's fork
//     swarm enforces this empirically across randomized worlds). The
//     pattern that guarantees it is "bind once, keep state in fields": a
//     component binds each callback as a method value when it is built,
//     and whatever an event needs (a window width, an armed epoch, a frame
//     to send) lives in the component's fields, where the walk sees it.
//     An AtArg event's argument is an interface field of the event, so a
//     pointer passed there is walked like any other.
//   - It does not traverse into channels or strings (immutable/opaque).
//   - It only manages objects whose types live in this module. Pointers to
//     foreign types (testing.T, os.File, io.Writer implementations, …) are
//     restored as pointers but their pointees are left alone: rolling back
//     a *testing.T or a file's state would be actively wrong. There is no
//     exception: an RNG holds its math/rand.Rand by value, so the Rand's
//     Read position is captured with the RNG's own bytes. The walk does
//     not descend into that Rand either: its source is the RNG's own
//     alfg, so following the source pointers would capture the alfg a
//     second time.
//
// Slices are saved as regions: the backing array contents over [0:cap] are
// copied out and restored, so post-snapshot appends within capacity roll
// back cleanly. A ByteArena chunk is the exception: only [0:len] is
// captured, because the bump allocator's callers write every byte past len
// before anything reads it. Aliasing subslices restore consistently
// because every region's bytes were captured at the same instant. Maps are
// saved as key/value pairs and restored by clearing the live map and
// reinserting — the map object itself (not a replacement) is mutated, so
// every pointer to it stays valid.
//
// The engine is single-threaded, like the simulation it captures.

// modulePrefix gates which pointee types the engine manages.
const modulePrefix = "injectable"

// managedType reports whether the engine should capture objects of type t.
func managedType(t reflect.Type) bool {
	pp := t.PkgPath()
	if pp == "" {
		// Unnamed composites (*[]byte, *struct{…}) carry no package; they
		// only arise from module code in practice.
		return true
	}
	return pp == modulePrefix || strings.HasPrefix(pp, modulePrefix+"/")
}

// objKey identifies a captured object: distinct types may share an address
// (a struct and its first field), so the type is part of the key.
type objKey struct {
	ptr unsafe.Pointer
	typ reflect.Type
}

// savedObj pairs a live object with its capture-time shallow copy.
type savedObj struct {
	live reflect.Value // addressable value over the live object
	snap reflect.Value // detached copy taken at capture time
}

// savedRegion is one slice backing-array region: [0:cap], or [0:len] for
// an arena chunk.
type savedRegion struct {
	live reflect.Value // slice over the live backing array's region
	snap reflect.Value // copied contents
}

// savedMap is one live map with its capture-time pairs.
type savedMap struct {
	live reflect.Value
	keys []reflect.Value
	vals []reflect.Value
}

// Capture is a restorable deep snapshot of the object graph reachable from
// a set of roots. Create with CaptureRoots; Restore may be called any
// number of times (each call rolls the graph back to the capture instant).
type Capture struct {
	roots   []any
	objs    []savedObj
	regions []savedRegion
	maps    []savedMap
}

// walker performs the graph traversal shared by CaptureRoots and
// VisitRNGs.
type walker struct {
	cap      *Capture // nil when only visiting
	seen     map[objKey]struct{}
	mapSeen  map[unsafe.Pointer]struct{}
	visitRNG func(*RNG)
}

// walkers is the free list of walkers' visited sets: a walk clears them
// when it ends, keeping their buckets, so a capture does not regrow them
// from empty.
var walkers freeList[*walker]

// newWalker returns a walker with empty visited sets, reusing a finished
// walk's when one is free. Hand it back with done.
func newWalker(c *Capture, visit func(*RNG)) *walker {
	w, ok := walkers.get()
	if !ok {
		w = &walker{seen: make(map[objKey]struct{}), mapSeen: make(map[unsafe.Pointer]struct{})}
	}
	w.cap, w.visitRNG = c, visit
	return w
}

// done clears the walker's visited sets and returns it to the free list.
func (w *walker) done() {
	clear(w.seen)
	clear(w.mapSeen)
	w.cap, w.visitRNG = nil, nil
	walkers.put(w)
}

// CaptureRoots deep-captures everything reachable from the given root
// pointers. Roots must be non-nil pointers to module-managed objects.
func CaptureRoots(roots ...any) *Capture {
	c := &Capture{roots: roots}
	w := newWalker(c, nil)
	w.walkRoots(roots)
	w.done()
	return c
}

// VisitRNGs walks the same graph CaptureRoots would and calls visit once
// for every *RNG encountered. It captures nothing. It is the reference a
// world's stream registry (RNG.Streams) is checked against: every stream
// it reaches from a world's snapshot roots must be registered.
func VisitRNGs(visit func(*RNG), roots ...any) {
	w := newWalker(nil, visit)
	w.walkRoots(roots)
	w.done()
}

func (w *walker) walkRoots(roots []any) {
	for _, r := range roots {
		if r == nil {
			continue
		}
		v := reflect.ValueOf(r)
		if v.Kind() != reflect.Ptr {
			panic(fmt.Sprintf("sim: snapshot root must be a pointer, got %T", r))
		}
		w.walk(v)
	}
}

var (
	rngType        = reflect.TypeOf(RNG{})
	randType       = reflect.TypeOf(rand.Rand{})
	arenaChunkType = reflect.TypeOf(arenaChunk(nil))
)

// walk visits one value. v may be unaddressable (a map key/value copy);
// traversal only needs the pointer values it contains.
func (w *walker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return
		}
		elemT := v.Type().Elem()
		if !managedType(elemT) {
			return
		}
		ptr := unsafe.Pointer(v.Pointer())
		key := objKey{ptr, elemT}
		if _, ok := w.seen[key]; ok {
			return
		}
		w.seen[key] = struct{}{}
		if w.visitRNG != nil && elemT == rngType {
			w.visitRNG((*RNG)(ptr))
		}
		live := reflect.NewAt(elemT, ptr).Elem()
		if w.cap != nil {
			snap := reflect.New(elemT).Elem()
			snap.Set(live)
			w.cap.objs = append(w.cap.objs, savedObj{live: live, snap: snap})
		}
		w.walk(live)

	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		switch e.Kind() {
		case reflect.Ptr, reflect.Map, reflect.Slice:
			w.walk(e)
		}
		// Non-pointer concretes boxed in an interface are unaddressable and
		// immutable through the interface; nothing to capture.

	case reflect.Struct:
		inRNG := v.Type() == rngType
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if inRNG && f.Type() == randType {
				continue // its source is this RNG's own alfg
			}
			if !f.CanInterface() && f.CanAddr() {
				// De-restrict an unexported field so slices/maps found under
				// it can be copied and restored.
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			w.walk(f)
		}

	case reflect.Array:
		if !hasPointers(v.Type().Elem()) {
			return // bytes captured with the owning object
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}

	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 {
			return
		}
		elemT := v.Type().Elem()
		full := v.Slice3(0, v.Cap(), v.Cap())
		ptr := unsafe.Pointer(full.Pointer())
		key := objKey{ptr, reflect.ArrayOf(v.Cap(), elemT)}
		if _, ok := w.seen[key]; !ok {
			w.seen[key] = struct{}{}
			if w.cap != nil {
				live := full
				if v.Type() == arenaChunkType {
					// Only [0:len] is state (see arenaChunk). The key
					// keeps the capacity, so chunks filled to any len
					// share one array type.
					live = v.Slice(0, v.Len())
				}
				snap := reflect.MakeSlice(v.Type(), live.Len(), live.Len())
				reflect.Copy(snap, live)
				w.cap.regions = append(w.cap.regions, savedRegion{live: live, snap: snap})
			}
		}
		if !hasPointers(elemT) {
			return
		}
		// Traverse only the live prefix: elements past len are retained
		// garbage from previous use, not reachable state.
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}

	case reflect.Map:
		if v.IsNil() {
			return
		}
		ptr := unsafe.Pointer(v.Pointer())
		if _, ok := w.mapSeen[ptr]; ok {
			return
		}
		w.mapSeen[ptr] = struct{}{}
		var sm *savedMap
		if w.cap != nil {
			w.cap.maps = append(w.cap.maps, savedMap{live: v})
			sm = &w.cap.maps[len(w.cap.maps)-1]
		}
		it := v.MapRange()
		kt, vt := v.Type().Key(), v.Type().Elem()
		for it.Next() {
			k := reflect.New(kt).Elem()
			k.Set(it.Key())
			val := reflect.New(vt).Elem()
			val.Set(it.Value())
			if sm != nil {
				sm.keys = append(sm.keys, k)
				sm.vals = append(sm.vals, val)
			}
			w.walk(k)
			w.walk(val)
		}
	}
}

// hasPointers reports whether values of t can reference other objects the
// walk must visit. Pointer-free element types (bytes, floats, plain
// structs) are captured wholesale by the region/owner copy and need no
// per-element traversal.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Interface, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return t.Kind() != reflect.String // strings are immutable; no visit needed
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	default:
		return false
	}
}

// Restore rolls every captured object, slice region and map back to its
// capture-time state. Objects created after the capture are simply dropped
// from the graph (whatever pointed to them is rolled back); the garbage
// collector reclaims them.
func (c *Capture) Restore() {
	for i := range c.objs {
		c.objs[i].live.Set(c.objs[i].snap)
	}
	for i := range c.regions {
		reflect.Copy(c.regions[i].live, c.regions[i].snap)
	}
	for i := range c.maps {
		m := &c.maps[i]
		// Empty the map, then reinstate the capture-time pairs. The map
		// object itself is mutated in place, so every live reference to it
		// stays valid.
		m.live.Clear()
		for j := range m.keys {
			m.live.SetMapIndex(m.keys[j], m.vals[j])
		}
	}
}

// Objects reports how many distinct objects the capture holds (testing and
// diagnostics).
func (c *Capture) Objects() int { return len(c.objs) }
