package main

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/obs"
)

// tracer collects the traced run's spans in memory, one lane per process
// role ("perfbench" for the spans the benchmark records around its own
// calls, one lane per in-process daemon or coordinator for the spans the
// program already records). A nil *tracer is the untraced run: every
// method is a no-op, so the workloads call it unconditionally.
//
// Every span the benchmark records carries three args: "id" (its own
// identity), "parent" (the id of the span that caused it, "" for roots)
// and "req" (the request it belongs to: a trial seed, job id or shard
// index). Self time is derived from the id/parent tree.
type tracer struct {
	mu    sync.Mutex
	lanes map[string][]obs.Span
	order []string
	seq   atomic.Int64
	lost  int
}

func newTracer() *tracer { return &tracer{lanes: map[string][]obs.Span{}} }

// nextID returns a fresh span id with the given prefix.
func (t *tracer) nextID(prefix string) string {
	if t == nil {
		return ""
	}
	return prefix + "#" + strconv.FormatInt(t.seq.Add(1), 10)
}

// add appends spans to a lane.
func (t *tracer) add(lane string, spans ...obs.Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.lanes[lane]; !ok {
		t.order = append(t.order, lane)
	}
	t.lanes[lane] = append(t.lanes[lane], spans...)
}

// span records a completed benchmark span [start, now) in the perfbench
// lane.
func (t *tracer) span(name, id, parent, req string, start time.Time, kv ...string) {
	if t == nil {
		return
	}
	args := append([]string{"id", id, "parent", parent, "req", req}, kv...)
	t.add(benchLane, obs.NewSpan("", name, start, args...))
}

// benchLane is the lane of spans recorded by the benchmark itself.
const benchLane = "perfbench"

// named returns every span called name across all lanes ("" = all).
func (t *tracer) named(name string) []obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []obs.Span
	for _, lane := range t.order {
		for _, s := range t.lanes[lane] {
			if name == "" || s.Name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// writeChrome renders every lane as one Chrome trace.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	procs := make([]obs.ProcessSpans, 0, len(t.order))
	for _, lane := range t.order {
		procs = append(procs, obs.ProcessSpans{Process: lane, Spans: t.lanes[lane]})
	}
	t.mu.Unlock()
	return obs.WriteFleetTrace(w, procs)
}

// hubFeed drains one program span ring (a daemon's or coordinator's
// obs.SpanLog, a bounded 4096-span ring) into a tracer lane. Polling
// often enough keeps the ring from evicting spans before they are
// collected; spans evicted anyway are counted in tracer.lost. The
// accounting relies on retained + evicted being the number of spans ever
// added; under concurrent adds a poll may defer a span to the next one.
type hubFeed struct {
	lane string
	log  *obs.SpanLog
	seen int
}

// skip marks every span added so far as collected, so the trace starts
// with the traced loop.
func (f *hubFeed) skip() { f.seen = f.log.Dropped() + len(f.log.Snapshot()) }

// poll appends the spans added since the previous poll; link, when set,
// assigns each an id and parent before it is stored.
func (f *hubFeed) poll(t *tracer, link func(*obs.Span)) {
	if t == nil {
		return
	}
	dropped := f.log.Dropped()
	snap := f.log.Snapshot()
	total := len(snap) + dropped
	fresh := total - f.seen
	f.seen = total
	if fresh <= 0 {
		return
	}
	if fresh > len(snap) {
		t.mu.Lock()
		t.lost += fresh - len(snap)
		t.mu.Unlock()
		fresh = len(snap)
	}
	spans := snap[len(snap)-fresh:]
	if link != nil {
		for i := range spans {
			link(&spans[i])
		}
	}
	t.add(f.lane, spans...)
}

// wrapPoints returns a copy of spec whose points' exported Warmup and Run
// record spans under parent: experiments.NewWarmTrial for the warm-up,
// runName for each trial.
func wrapPoints(spec *campaign.Spec, tr *tracer, parent, runName string) *campaign.Spec {
	s := *spec
	s.Points = append([]campaign.Point(nil), spec.Points...)
	for i := range s.Points {
		warm, run := s.Points[i].Warmup, s.Points[i].Run
		if warm != nil {
			s.Points[i].Warmup = func(u campaign.Warmup) (any, error) {
				start := time.Now()
				v, err := warm(u)
				tr.span("experiments.NewWarmTrial", tr.nextID("warm"), parent, strconv.FormatUint(u.Seed, 10), start, "point", u.Point)
				return v, err
			}
		}
		s.Points[i].Run = func(t campaign.Trial) (any, error) {
			start := time.Now()
			v, err := run(t)
			tr.span(runName, tr.nextID("trial"), parent, strconv.FormatUint(t.Seed, 10), start, "point", t.Point)
			return v, err
		}
	}
	return &s
}

// setArg sets one span arg, allocating the map if needed.
func setArg(s *obs.Span, k, v string) {
	if s.Args == nil {
		s.Args = map[string]string{}
	}
	s.Args[k] = v
}

// selfTimes returns, for every span with an "id" arg, its duration minus
// the part of its interval that the union of its children's intervals
// covers (children clipped to the parent). Overlapping children — trials
// running on two workers under one campaign span — are counted once.
func selfTimes(spans []obs.Span) map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[string][]iv{}
	for _, s := range spans {
		if p := s.Args["parent"]; p != "" {
			kids[p] = append(kids[p], iv{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		id := s.Args["id"]
		if id == "" {
			continue
		}
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		cs := kids[id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, c := range cs {
			clo, chi := max(c.lo, lo), min(c.hi, hi)
			if chi <= clo {
				continue
			}
			if clo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = clo, chi
			} else if chi > curHi {
				curHi = chi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[id] = s.DurUS - covered
	}
	return out
}

// selfRow is one line of the traced run's self-time table.
type selfRow struct {
	name            string
	count           int
	totalUS, selfUS int64
}

// selfTable sums duration and self time per span name, largest self
// time first.
func selfTable(spans []obs.Span) []selfRow {
	self := selfTimes(spans)
	rows := map[string]*selfRow{}
	for _, s := range spans {
		id := s.Args["id"]
		if id == "" || s.DurUS == 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalUS += s.DurUS
		r.selfUS += self[id]
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].selfUS != out[b].selfUS {
			return out[a].selfUS > out[b].selfUS
		}
		return out[a].name < out[b].name
	})
	return out
}

// usPerSimSecond is the host time trial spans took per simulated second,
// each trial simulating simSeconds.
func usPerSimSecond(trials []obs.Span, simSeconds float64) float64 {
	if len(trials) == 0 {
		return 0
	}
	var sum int64
	for _, s := range trials {
		sum += s.DurUS
	}
	return float64(sum) / (float64(len(trials)) * simSeconds)
}

// durationsMS returns the durations of spans in milliseconds.
func durationsMS(spans []obs.Span) []float64 {
	out := make([]float64, 0, len(spans))
	for _, s := range spans {
		out = append(out, float64(s.DurUS)/1000)
	}
	return out
}
