package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, c := range []struct {
		pct, ok, short int
	}{{50, 20, 19}, {90, 100, 99}, {99, 1000, 999}} {
		if _, err := percentile(seq(c.short), c.pct); err == nil {
			t.Errorf("p%d of %d samples: want an error (fewer than ten beyond it)", c.pct, c.short)
		}
		if _, err := percentile(seq(c.ok), c.pct); err != nil {
			t.Errorf("p%d of %d samples: %v", c.pct, c.ok, err)
		}
	}
	// Rank pct/100·(n−1), interpolated: p90 of 1..100 is 90.1.
	v, err := percentile(seq(100), 90)
	if err != nil || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.1", v, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// A loop has enough samples once both of its tail percentiles pass.
	for _, c := range []struct {
		short, long int
		want        bool
	}{{1000, 100, true}, {999, 100, false}, {1000, 99, false}} {
		if got := (&tally{short: seq(c.short), long: seq(c.long)}).enough(); got != c.want {
			t.Errorf("enough with %d short and %d long samples = %v, want %v", c.short, c.long, got, c.want)
		}
	}
}

func TestRateCountsTheWholeLoop(t *testing.T) {
	// Every job the loop completed counts, over all of its wall-clock
	// time: 25 trials in 3 jobs (one simulating nothing) over 2.5 s.
	tl := &tally{elapsed: 2500 * time.Millisecond}
	for _, trials := range []int{10, 0, 15} {
		tl.done(trials)
	}
	if got := tl.perSecond(tl.trials); got != 10 {
		t.Errorf("trials rate = %v, want 10", got)
	}
	if got := tl.perSecond(tl.jobs); got != 1.2 {
		t.Errorf("jobs rate = %v, want 1.2", got)
	}
}

// span builds a benchmark-style span for the self-time tests.
func span(id, parent string, start, dur int64) obs.Span {
	return obs.Span{Name: id, StartUS: start, DurUS: dur, Args: map[string]string{"id": id, "parent": parent}}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []obs.Span{
		span("run", "", 0, 100),
		// Two workers' trials overlap: [10,50) ∪ [30,70) covers 60.
		span("a", "run", 10, 40),
		span("b", "run", 30, 40),
		// A child nested inside another child covers nothing new.
		span("c", "run", 40, 5),
		// A child running past its parent's end is clipped: [90,100).
		span("d", "run", 90, 30),
		// Grandchild of a: counts against a, not against run.
		span("e", "a", 20, 10),
	}
	self := selfTimes(spans)
	for id, want := range map[string]int64{"run": 100 - 60 - 10, "a": 30, "b": 40, "c": 5, "d": 30, "e": 10} {
		if self[id] != want {
			t.Errorf("self(%s) = %d, want %d", id, self[id], want)
		}
	}
}

func TestProfileFrameAttribution(t *testing.T) {
	const sim = "injectable/internal/sim."
	for _, c := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"math/rand under VisitRNGs", []string{
			"math/rand.(*rngSource).Int63", sim + "VisitRNGs",
			"injectable/internal/host.(*World).RekeyStreams",
		}, "sim.rng"},
		{"reflect under CaptureRoots", []string{
			"reflect.Value.Field", sim + "(*walker).walk", sim + "(*walker).walk",
			sim + "(*walker).walkRoots", sim + "CaptureRoots", "injectable/internal/host.(*World).Snapshot",
		}, "sim.snapshot"},
		{"walker under VisitRNGs", []string{
			"reflect.Value.Elem", sim + "(*walker).walk", sim + "VisitRNGs",
		}, "sim.rng"},
		{"reseed inside the rekey callback", []string{
			"math/rand.seedrand", sim + "(*RNG).Rekey", "injectable/internal/host.(*World).RekeyStreams.func1",
			sim + "(*walker).walk", sim + "VisitRNGs",
		}, "sim.rng"},
		{"restore", []string{"reflect.Value.Set", sim + "(*Capture).Restore", "injectable/internal/host.(*World).Fork"}, "sim.snapshot"},
		{"scheduler", []string{sim + "(*Scheduler).RunUntil", "injectable/internal/host.(*World).RunFor"}, "sim.scheduler"},
		{"event callback", []string{"injectable/internal/medium.(*Medium).deliver", sim + "(*Scheduler).RunUntil"}, "medium"},
		{"ble is link", []string{"injectable/internal/ble/csa.Channel", "injectable/internal/link.(*Conn).event"}, "link"},
		{"gatt is host", []string{"encoding/binary.Read", "injectable/internal/gatt.(*Server).handle"}, "host"},
		{"json under serve", []string{"encoding/json.Marshal", "injectable/internal/serve.(*Server).handleRun"}, "serve"},
		{"net/http", []string{"net/http.(*conn).serve", "runtime.goexit"}, "other"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
	} {
		if got := layerOf(c.stack, nil); got != c.want {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.want)
		}
	}
	if got := layerOf([]string{"injectable/internal/campaign.DecodeBinary"}, map[string]string{benchLabel: "check"}); got != "bench" {
		t.Errorf("labelled check sample: layer %q, want bench", got)
	}
}

// flip returns a copy of b with one byte inverted.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// testStream encodes a small two-point exp1 stream whose trials
// succeeded or not.
func testStream(success bool) []byte {
	value := json.RawMessage(fmt.Sprintf(`{"Success":%t,"Attempts":2}`, success))
	recs := []campaign.Record{
		{Point: "25", Trial: 0, Seed: 1000, OK: true, Value: value},
		{Point: "50", Trial: 0, Seed: 2000, OK: true, Value: value},
	}
	info := campaign.StreamInfo{Name: "fig9-exp1", SeedBase: 1000, Points: 2, Trials: 2}
	return campaign.EncodeBinary(info, recs, campaign.StreamTallies{Trials: 2, OK: 2})
}

func TestOutputChecksRejectAFlippedByte(t *testing.T) {
	stream := testStream(true)
	if err := checkCatalogStream(stream, stream, true); err != nil {
		t.Fatalf("fig9-catalog check of an intact stream: %v", err)
	}
	if err := checkMergedStream(stream, 2); err != nil {
		t.Fatalf("fleet-fork check of an intact stream: %v", err)
	}
	s := &stored{binary: stream}
	for _, format := range []string{serve.FormatBinary, serve.FormatNDJSON, "aggregate"} {
		want, err := s.expected(format)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.checkReplay(format, want); err != nil {
			t.Fatalf("daemon-mix check of an intact %s replay: %v", format, err)
		}
	}
	for i := range stream {
		bad := flip(stream, i)
		if checkCatalogStream(bad, stream, true) == nil {
			t.Errorf("fig9-catalog check passed with byte %d flipped", i)
		}
		if checkMergedStream(bad, 2) == nil {
			t.Errorf("fleet-fork check passed with byte %d flipped", i)
		}
		if s.checkReplay(serve.FormatBinary, bad) == nil {
			t.Errorf("daemon-mix check passed with byte %d flipped", i)
		}
	}
	nd, _ := s.expected(serve.FormatNDJSON)
	if s.checkReplay(serve.FormatNDJSON, flip(nd, len(nd)/2)) == nil {
		t.Error("daemon-mix check passed an NDJSON replay with a flipped byte")
	}
	// An exp1 trial that did not succeed fails the catalog check even
	// when the stream matches its reference; the other sweeps' trials
	// need not succeed.
	failing := testStream(false)
	if checkCatalogStream(failing, failing, true) == nil {
		t.Error("fig9-catalog check passed an exp1 trial that did not succeed")
	}
	if err := checkCatalogStream(failing, failing, false); err != nil {
		t.Errorf("fig9-catalog check of a sweep other than exp1: %v", err)
	}
}

func TestLoadShapeGuard(t *testing.T) {
	for _, w := range workloads {
		if err := w.shape.check(2); err != nil {
			t.Errorf("%s does not fit two CPUs: %v", w.name, err)
		}
		if err := w.shape.check(1); err == nil {
			t.Errorf("%s: the guard let a two-CPU load run on one", w.name)
		}
	}
	// The deployed daemon default: 2 jobs × GOMAXPROCS trial workers.
	if (loadShape{daemons: [][2]int{{2, 2}}}).check(2) == nil {
		t.Error("the guard let 2 jobs x 2 trial workers run on two CPUs")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(set.json), len(set.defs))
		}
		for i, d := range set.defs {
			j := set.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %s %s %s", i, j, d.name, d.unit, d.better)
			}
		}
	}
}
