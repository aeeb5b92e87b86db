package campaign

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestCollatorOutOfOrder drives the collator with a fully reversed and a
// randomly shuffled arrival order and checks the released sequence is the
// ordinal sequence both times — the property the runner's sink ordering
// and the fabric's cross-node shard merge rest on.
func TestCollatorOutOfOrder(t *testing.T) {
	const n = 64
	orders := map[string][]int{
		"reversed": make([]int, n),
		"shuffled": rand.New(rand.NewSource(7)).Perm(n),
	}
	for i := range orders["reversed"] {
		orders["reversed"][i] = n - 1 - i
	}
	for name, arrival := range orders {
		c := NewCollator[int](0)
		var got []int
		for _, ord := range arrival {
			got = append(got, c.Add(ord, ord*10)...)
		}
		if c.Pending() != 0 {
			t.Fatalf("%s: %d items still pending after all %d added", name, c.Pending(), n)
		}
		if c.Next() != n {
			t.Fatalf("%s: Next() = %d, want %d", name, c.Next(), n)
		}
		if len(got) != n {
			t.Fatalf("%s: released %d items, want %d", name, len(got), n)
		}
		for i, v := range got {
			if v != i*10 {
				t.Fatalf("%s: release position %d got %d, want %d", name, i, v, i*10)
			}
		}
	}
}

// TestCollatorOnRelease checks the hook fires once per ordinal, in
// release order, even when a gap-fill releases a run of buffered items.
func TestCollatorOnRelease(t *testing.T) {
	c := NewCollator[string](0)
	var fired []int
	c.OnRelease = func(ordinal int) { fired = append(fired, ordinal) }
	c.Add(2, "c")
	c.Add(1, "b")
	if len(fired) != 0 {
		t.Fatalf("hook fired %v before the front gap filled", fired)
	}
	c.Add(0, "a")
	if len(fired) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(fired))
	}
	for i, ord := range fired {
		if ord != i {
			t.Fatalf("hook order %v, want release order", fired)
		}
	}
}

// TestCollatorGapHoldsBack checks nothing is released while the front
// ordinal is missing, and that filling the gap releases the whole run.
func TestCollatorGapHoldsBack(t *testing.T) {
	c := NewCollator[string](0)
	for _, ord := range []int{2, 1, 3} {
		if out := c.Add(ord, "x"); len(out) != 0 {
			t.Fatalf("ordinal %d released %d items before the gap at 0 filled", ord, len(out))
		}
	}
	if c.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", c.Pending())
	}
	if out := c.Add(0, "x"); len(out) != 4 {
		t.Fatalf("filling the gap released %d items, want 4", len(out))
	}
}

// TestCollatorNonZeroBase covers a collator rooted at an arbitrary first
// ordinal (a resumed merge starts past the journaled prefix).
func TestCollatorNonZeroBase(t *testing.T) {
	c := NewCollator[int](5)
	if out := c.Add(6, 6); len(out) != 0 {
		t.Fatalf("ordinal 6 released early: %v", out)
	}
	out := c.Add(5, 5)
	if len(out) != 2 || out[0] != 5 || out[1] != 6 {
		t.Fatalf("Add(5) released %v, want [5 6]", out)
	}
}

// TestNDJSONFrameHelpers pins the frame helpers the fabric stamps over
// merged shards — BinaryHeader and BinaryTrailer — to what the sink
// itself writes, and their NDJSON rendering to the literal header and
// end lines, so a fabric-merged stream's frame lines cannot drift from
// a single-process run's.
func TestNDJSONFrameHelpers(t *testing.T) {
	spec := &Spec{
		Name:     "fig9-exp1",
		SeedBase: 1000,
		Points: []Point{
			{Label: "a", Trials: 2, Run: func(Trial) (any, error) { return nil, nil }},
			{Label: "b", Trials: 1, Run: func(Trial) (any, error) { return nil, nil }},
		},
	}
	var buf bytes.Buffer
	sink := NewBinary(&buf)
	sink.Start(spec, spec.TotalTrials())
	header := BinaryHeader("fig9-exp1", 1000, 2, 3)
	if !bytes.Equal(buf.Bytes(), header) {
		t.Fatalf("sink header %q != BinaryHeader %q", buf.Bytes(), header)
	}
	buf.Reset()
	sink.Result(Result{Point: "a", Index: 0})
	sink.Result(Result{Point: "a", Index: 1, Err: ErrTimeout})
	buf.Reset()
	sink.Finish(Metrics{})
	trailer := BinaryTrailer(2, 1, 1)
	if !bytes.Equal(buf.Bytes(), trailer) {
		t.Fatalf("sink trailer %q != BinaryTrailer %q", buf.Bytes(), trailer)
	}

	var nd bytes.Buffer
	if err := TranscodeBinaryToNDJSON(&nd, append(header, trailer...)); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"campaign","campaign":"fig9-exp1","seed_base":1000,"points":2,"trials":3}` + "\n" +
		`{"kind":"end","trials":2,"ok":1,"failed":1}` + "\n"
	if nd.String() != want {
		t.Fatalf("frame lines %q, want %q", nd.String(), want)
	}
}
