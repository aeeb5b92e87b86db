package sim

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// The engine test types live in this package, so they are module-managed.

type stateLeaf struct {
	n    int
	name string
}

type stateNode struct {
	value   int
	leaf    *stateLeaf
	peers   []*stateLeaf
	scores  map[string]int
	buf     []byte
	self    *stateNode // cycle
	labels  [2]string
	cb      func() int
	tracker any
}

func TestCaptureRestoreStruct(t *testing.T) {
	leaf := &stateLeaf{n: 1, name: "a"}
	n := &stateNode{value: 10, leaf: leaf}
	n.self = n
	cap := CaptureRoots(n)

	n.value = 99
	leaf.n = 77
	n.leaf = &stateLeaf{n: 5}
	cap.Restore()

	if n.value != 10 || n.leaf != leaf || leaf.n != 1 {
		t.Fatalf("restore: value=%d leaf=%p n=%d", n.value, n.leaf, leaf.n)
	}
}

func TestCaptureRestoreSliceRegion(t *testing.T) {
	n := &stateNode{buf: make([]byte, 3, 8)}
	copy(n.buf, []byte{1, 2, 3})
	cap := CaptureRoots(n)

	// Mutate in place, append within capacity, then reslice.
	n.buf[0] = 9
	n.buf = append(n.buf, 4, 5)
	cap.Restore()

	if len(n.buf) != 3 || n.buf[0] != 1 || n.buf[1] != 2 || n.buf[2] != 3 {
		t.Fatalf("restore: buf=%v", n.buf)
	}
	// The capacity region is restored too: re-appending reproduces the
	// original bytes deterministically only if the caller rewrites them,
	// but the header must be back to len 3.
	if cap.Objects() == 0 {
		t.Fatal("expected captured objects")
	}
}

func TestCaptureRestorePointerSlice(t *testing.T) {
	a, b := &stateLeaf{n: 1}, &stateLeaf{n: 2}
	n := &stateNode{peers: []*stateLeaf{a, b}}
	cap := CaptureRoots(n)

	a.n = 100
	n.peers = append(n.peers[:1], &stateLeaf{n: 3})
	cap.Restore()

	if len(n.peers) != 2 || n.peers[0] != a || n.peers[1] != b {
		t.Fatalf("restore: peers=%v", n.peers)
	}
	if a.n != 1 || b.n != 2 {
		t.Fatalf("restore: a.n=%d b.n=%d", a.n, b.n)
	}
}

func TestCaptureRestoreMap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(map[string]int)
	}{
		{"key added", func(m map[string]int) { m["z"] = 3 }},
		{"key deleted", func(m map[string]int) { delete(m, "y") }},
		{"value overwritten", func(m map[string]int) { m["x"] = 50 }},
		{"all three", func(m map[string]int) { m["x"] = 50; m["z"] = 3; delete(m, "y") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := &stateNode{scores: map[string]int{"x": 1, "y": 2}}
			m := n.scores
			cap := CaptureRoots(n)

			tc.mutate(n.scores)
			cap.Restore()

			if !reflect.DeepEqual(n.scores, map[string]int{"x": 1, "y": 2}) {
				t.Fatalf("restore: scores=%v", n.scores)
			}
			// The same map object was restored in place, not replaced.
			m["w"] = 9
			if n.scores["w"] != 9 {
				t.Fatal("map object identity lost on restore")
			}
		})
	}
}

// TestCaptureRestoreArenaChunk forks a byte arena whose next allocations
// cross into a new chunk. The active chunk is captured only up to its
// len, and allocating again after the restore hands out what the first
// timeline did.
func TestCaptureRestoreArenaChunk(t *testing.T) {
	a := NewByteArena()
	old := a.Copy([]byte("captured"))
	a.Alloc(byteArenaChunk - 100)
	cap := CaptureRoots(a)

	chunk := unsafe.Pointer(unsafe.SliceData(a.cur))
	found := false
	for _, r := range cap.regions {
		if r.live.UnsafePointer() == chunk {
			found = true
			if r.live.Len() != len(a.cur) {
				t.Fatalf("active chunk captured as %d bytes, want its len %d", r.live.Len(), len(a.cur))
			}
		}
	}
	if !found {
		t.Fatal("active chunk not captured")
	}

	timeline := func() (bufs [][]byte, ptrs []unsafe.Pointer) {
		for i := 0; i < 8; i++ {
			b := a.Copy(bytes.Repeat([]byte{byte('a' + i)}, 30))
			bufs = append(bufs, b)
			ptrs = append(ptrs, unsafe.Pointer(unsafe.SliceData(b)))
		}
		return bufs, ptrs
	}
	first, firstPtrs := timeline()
	if len(a.filled) != 1 {
		t.Fatalf("timeline filled %d chunks, want 1", len(a.filled))
	}
	copy(old, "clobber!")
	cap.Restore()

	if string(old) != "captured" {
		t.Fatalf("bytes under len after restore = %q, want %q", old, "captured")
	}
	second, secondPtrs := timeline()
	for i := range first {
		if !bytes.Equal(second[i], first[i]) {
			t.Fatalf("allocation %d after restore = %q, want %q", i, second[i], first[i])
		}
	}
	// The allocations that fit the captured chunk land where they did.
	for i := 0; i < 3; i++ {
		if secondPtrs[i] != firstPtrs[i] {
			t.Fatalf("allocation %d after restore moved", i)
		}
	}
}

func TestCaptureRestoreFuncField(t *testing.T) {
	calls := &stateLeaf{}
	n := &stateNode{}
	n.cb = func() int { calls.n++; return calls.n }
	// calls is reachable only through the closure, which the engine does
	// not traverse — register it as its own root, the pattern snapshot-
	// compatible code uses.
	cap := CaptureRoots(n, calls)

	n.cb()
	n.cb()
	orig := n.cb
	n.cb = func() int { return -1 }
	cap.Restore()

	if calls.n != 0 {
		t.Fatalf("restore: closure state n=%d, want 0", calls.n)
	}
	if reflect.ValueOf(n.cb).Pointer() != reflect.ValueOf(orig).Pointer() {
		t.Fatal("func field not restored to the original closure")
	}
	if got := n.cb(); got != 1 {
		t.Fatalf("restored closure call = %d, want 1", got)
	}
}

func TestCaptureRestoreInterfaceField(t *testing.T) {
	inner := &stateLeaf{n: 4}
	n := &stateNode{tracker: inner}
	cap := CaptureRoots(n)

	inner.n = 40
	n.tracker = "replaced"
	cap.Restore()

	if n.tracker != any(inner) || inner.n != 4 {
		t.Fatalf("restore: tracker=%v inner.n=%d", n.tracker, inner.n)
	}
}

func TestRestoreIsRepeatable(t *testing.T) {
	n := &stateNode{value: 1, scores: map[string]int{"a": 1}}
	cap := CaptureRoots(n)
	for i := 0; i < 3; i++ {
		n.value = 100 + i
		n.scores["b"] = i
		cap.Restore()
		if n.value != 1 || len(n.scores) != 1 || n.scores["a"] != 1 {
			t.Fatalf("restore %d: value=%d scores=%v", i, n.value, n.scores)
		}
	}
}

func TestVisitRNGs(t *testing.T) {
	type holder struct {
		g     *RNG
		child *RNG
		bag   map[string]*RNG
	}
	h := &holder{g: NewRNG(1)}
	h.child = h.g.Child("c")
	h.bag = map[string]*RNG{"m": h.g.Child("m")}
	seen := map[*RNG]bool{}
	VisitRNGs(func(g *RNG) { seen[g] = true }, h)
	if len(seen) != 3 || !seen[h.g] || !seen[h.child] || !seen[h.bag["m"]] {
		t.Fatalf("visited %d RNGs, want 3", len(seen))
	}
}

// TestCaptureHoldsAnRNGsGeneratorOnce: a drawn stream's alfg is captured
// with its RNG's bytes, not a second time as an object of its own through
// its rand.Rand's source pointer; a stream drawn past 273 adds exactly its
// register. Repeated captures, which reuse the walk's visited sets, see
// the whole graph every time.
func TestCaptureHoldsAnRNGsGeneratorOnce(t *testing.T) {
	g := NewRNG(7)
	g.Float64()
	for i := 0; i < 3; i++ {
		if n := CaptureRoots(g).Objects(); n != 1 {
			t.Fatalf("capture %d of a stream drawn once holds %d objects, want 1 (the RNG)", i, n)
		}
	}
	for i := 0; i < alfgTap; i++ {
		g.Float64()
	}
	c := CaptureRoots(g)
	if n := c.Objects(); n != 2 {
		t.Fatalf("a stream past draw %d captures %d objects, want 2 (the RNG and its register)", alfgTap, n)
	}
	want := []float64{g.Float64(), g.Float64(), g.Float64()}
	c.Restore()
	for i, w := range want {
		if got := g.Float64(); got != w {
			t.Fatalf("draw %d after restore = %v, want %v", i, got, w)
		}
	}
}
