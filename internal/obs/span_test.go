package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestSpanLogBoundDropsOldest: the log keeps the newest spans when the
// bound is exceeded and accounts for every eviction.
func TestSpanLogBoundDropsOldest(t *testing.T) {
	l := NewSpanLog(3)
	for i := 0; i < 5; i++ {
		l.Add(Span{Name: "s", StartUS: int64(i)})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("kept %d spans, want 3", len(got))
	}
	if got[0].StartUS != 2 || got[2].StartUS != 4 {
		t.Errorf("wrong window kept: %+v", got)
	}
	if l.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", l.Dropped())
	}
}

// TestSpanLogRingKeepsOrderAcrossWraps: past the bound the log is a ring;
// Snapshot still returns the newest spans oldest first after several
// wraps, and Dropped counts every eviction.
func TestSpanLogRingKeepsOrderAcrossWraps(t *testing.T) {
	l := NewSpanLog(4)
	for i := 0; i < 11; i++ {
		l.Add(Span{Name: "s", StartUS: int64(i)})
	}
	got := l.Snapshot()
	for i, s := range got {
		if s.StartUS != int64(7+i) {
			t.Fatalf("snapshot %v, want spans 7..10 in order", got)
		}
	}
	if len(got) != 4 || l.Dropped() != 7 {
		t.Fatalf("kept %d, dropped %d; want 4 and 7", len(got), l.Dropped())
	}
}

// TestSpanLogAddOnFullLogAllocatesNothing: a full log overwrites in
// place, so a long-lived daemon's per-request span costs no allocation.
func TestSpanLogAddOnFullLogAllocatesNothing(t *testing.T) {
	l := NewSpanLog(DefaultSpanLimit)
	s := Span{Trace: "t", Name: "cache-hit", StartUS: 1, DurUS: 2}
	for i := 0; i < DefaultSpanLimit; i++ {
		l.Add(s)
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.Add(s) }); allocs != 0 {
		t.Fatalf("Add on a full log allocates %v, want 0", allocs)
	}
	if l.Dropped() != 1001 {
		t.Fatalf("dropped %d, want 1001", l.Dropped())
	}
}

// TestSpanLogNilSafe: nil receivers are inert like the rest of obs.
func TestSpanLogNilSafe(t *testing.T) {
	var l *SpanLog
	l.Add(Span{Name: "x"})
	if l.Snapshot() != nil || l.Dropped() != 0 {
		t.Error("nil SpanLog is not inert")
	}
	var h *Hub
	h.Spans().Add(Span{Name: "x"})
}

// TestNewSpanArgs: NewSpan pairs up the variadic args and never yields
// a negative duration.
func TestNewSpanArgs(t *testing.T) {
	s := NewSpan("t1", "run", time.Now().Add(time.Second), "shard", "3", "worker", "w0")
	if s.DurUS != 0 {
		t.Errorf("future start produced negative duration %d", s.DurUS)
	}
	if s.Args["shard"] != "3" || s.Args["worker"] != "w0" {
		t.Errorf("args not paired: %v", s.Args)
	}
	if m := Mark("t1", "redispatch"); m.DurUS != 0 {
		t.Errorf("mark has duration %d", m.DurUS)
	}
}

// TestWriteFleetTrace renders spans from three processes and checks the
// Chrome trace has one pid lane per process, per-shard threads, and the
// trace id surfaced in args.
func TestWriteFleetTrace(t *testing.T) {
	procs := []ProcessSpans{
		{Process: "coordinator", Spans: []Span{
			NewSpan("abc", "merge", time.Now(), "shard", "0"),
			Mark("abc", "redispatch", "shard", "1"),
		}},
		{Process: "http://w1", Spans: []Span{{Trace: "abc", Name: "run", StartUS: 10, DurUS: 5, Args: map[string]string{"shard": "0"}}}},
		{Process: "http://w2", Spans: []Span{{Trace: "abc", Name: "run", StartUS: 12, DurUS: 4}}},
	}
	var buf bytes.Buffer
	if err := WriteFleetTrace(&buf, procs); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	pids := map[int]string{}
	var lanes []string
	for _, e := range out.TraceEvents {
		if e.Name == "process_name" && e.Ph == "M" {
			pids[e.PID] = e.Args["name"]
		}
		if e.Name == "thread_name" && e.Ph == "M" {
			lanes = append(lanes, e.Args["name"])
		}
	}
	if len(pids) != 3 {
		t.Fatalf("want 3 process lanes, got %v", pids)
	}
	for pid, name := range map[int]string{1: "coordinator", 2: "http://w1", 3: "http://w2"} {
		if pids[pid] != name {
			t.Errorf("pid %d named %q, want %q", pid, pids[pid], name)
		}
	}
	wantLane := false
	for _, l := range lanes {
		if l == "shard 0" {
			wantLane = true
		}
	}
	if !wantLane {
		t.Errorf("no per-shard lane in %v", lanes)
	}
	for _, e := range out.TraceEvents {
		if e.Ph == "X" && e.Args["trace"] != "abc" {
			t.Errorf("span %q lost its trace id: %v", e.Name, e.Args)
		}
	}
}

// TestFilterTrace keeps only the requested trace's spans.
func TestFilterTrace(t *testing.T) {
	spans := []Span{{Trace: "a", Name: "x"}, {Trace: "b", Name: "y"}, {Trace: "a", Name: "z"}}
	got := FilterTrace(spans, "a")
	if len(got) != 2 || got[0].Name != "x" || got[1].Name != "z" {
		t.Errorf("filter: %+v", got)
	}
}
