package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed operation in a cross-process job trace. The Trace id
// ties spans from different processes to one logical job: the serving
// layer uses the job's canonical spec hash, and a coordinator propagates
// its campaign-level hash to every worker over the X-Trace-Id header so
// a shard's dispatch on the coordinator and its execution on a worker
// share one id.
type Span struct {
	// Trace is the trace id (canonical spec hash; "" when untraced).
	Trace string `json:"trace,omitempty"`
	// Name is the operation ("dispatch", "stream", "validate", "merge",
	// "redispatch", "queue", "run", ...).
	Name string `json:"name"`
	// StartUS is the wall-clock start in Unix microseconds; DurUS the
	// duration in microseconds (0 for instant marks).
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Args carry span-scoped detail (shard index, worker, status, ...).
	Args map[string]string `json:"args,omitempty"`
}

// NewSpan builds a completed span covering [start, now). Args are
// alternating key/value strings.
func NewSpan(trace, name string, start time.Time, kv ...string) Span {
	s := Span{
		Trace:   trace,
		Name:    name,
		StartUS: start.UnixMicro(),
		DurUS:   time.Since(start).Microseconds(),
	}
	if s.DurUS < 0 {
		s.DurUS = 0
	}
	if len(kv) > 0 {
		s.Args = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			s.Args[kv[i]] = kv[i+1]
		}
	}
	return s
}

// Mark builds an instant (zero-duration) span stamped now.
func Mark(trace, name string, kv ...string) Span {
	s := NewSpan(trace, name, time.Now(), kv...)
	s.DurUS = 0
	return s
}

// SpanLog is a bounded, concurrency-safe record of spans. When the
// bound is hit the oldest spans are dropped (the count is retained), so
// a long-lived daemon's trace surface stays a window over recent work.
// A nil *SpanLog is a no-op everywhere, matching the package's hub
// conventions.
//
// Once full, spans is a ring: each Add overwrites the oldest span, at
// head, and advances head, so a long-lived daemon pays O(1) per span.
type SpanLog struct {
	mu      sync.Mutex
	spans   []Span
	head    int
	limit   int
	dropped int
}

// DefaultSpanLimit bounds a SpanLog constructed with limit 0.
const DefaultSpanLimit = 4096

// NewSpanLog returns a log keeping at most limit spans (0 = the
// default bound).
func NewSpanLog(limit int) *SpanLog {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &SpanLog{limit: limit}
}

// Add appends a span, evicting the oldest beyond the bound.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) < l.limit {
		l.spans = append(l.spans, s)
		return
	}
	l.spans[l.head] = s
	l.head = (l.head + 1) % len(l.spans)
	l.dropped++
}

// Snapshot returns a copy of the retained spans in insertion order.
func (l *SpanLog) Snapshot() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, 0, len(l.spans))
	out = append(out, l.spans[l.head:]...)
	return append(out, l.spans[:l.head]...)
}

// Dropped returns how many spans were evicted by the bound.
func (l *SpanLog) Dropped() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// ProcessSpans is one process lane of a fleet trace: a process name
// ("coordinator", a worker URL) and the spans it recorded.
type ProcessSpans struct {
	Process string `json:"process"`
	Spans   []Span `json:"spans"`
}

// FilterTrace returns the subset of spans carrying the given trace id.
func FilterTrace(spans []Span, trace string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// WriteFleetTrace renders spans gathered from several processes as one
// Chrome trace_event file: each process gets its own lane (pid), named
// via process_name metadata, and within a process spans with a "shard"
// arg fan out onto per-shard threads so concurrent shard work renders
// side by side instead of overlapping. Span timestamps are wall-clock
// Unix microseconds, so lanes from processes on one machine line up.
func WriteFleetTrace(w io.Writer, procs []ProcessSpans) error {
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, proc := range procs {
		pid := i + 1
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]string{"name": proc.Process},
		})
		tids := map[string]int{}
		tid := func(lane string) int {
			id, ok := tids[lane]
			if !ok {
				id = len(tids) + 1
				tids[lane] = id
				trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", PID: pid, TID: id,
					Args: map[string]string{"name": lane},
				})
			}
			return id
		}
		spans := append([]Span{}, proc.Spans...)
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].StartUS < spans[b].StartUS })
		for _, s := range spans {
			lane := "main"
			if shard, ok := s.Args["shard"]; ok {
				lane = "shard " + shard
			}
			args := make(map[string]string, len(s.Args)+1)
			for k, v := range s.Args {
				args[k] = v
			}
			if s.Trace != "" {
				args["trace"] = s.Trace
			}
			ce := chromeEvent{
				Name: s.Name, PID: pid, TID: tid(lane),
				TS: float64(s.StartUS), Args: args,
			}
			if s.DurUS > 0 {
				ce.Ph, ce.Dur = "X", float64(s.DurUS)
			} else {
				ce.Ph, ce.S = "i", "t"
			}
			trace.TraceEvents = append(trace.TraceEvents, ce)
		}
	}
	return json.NewEncoder(w).Encode(trace)
}

// SpanArg formats a span arg value (ints are the common case).
func SpanArg(v int) string { return fmt.Sprintf("%d", v) }
