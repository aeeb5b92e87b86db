package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"injectable/internal/sim"
)

// hashSpec is a cheap deterministic campaign: each trial draws from its
// private stream and returns a value that depends only on its identity.
func hashSpec(points, trials int) *Spec {
	spec := &Spec{Name: "hash", SeedBase: 42}
	for p := 0; p < points; p++ {
		spec.Points = append(spec.Points, Point{
			Label:  fmt.Sprintf("p%d", p),
			Trials: trials,
			Run: func(t Trial) (any, error) {
				rng := t.RNG()
				v := t.Seed
				for i := 0; i < 100; i++ {
					v ^= rng.Uint64()
				}
				return v, nil
			},
		})
	}
	return spec
}

// deterministicFields strips the measurement fields so runs can be compared.
func deterministicFields(results []Result) []Result {
	out := append([]Result(nil), results...)
	for i := range out {
		out[i].Elapsed = 0
		out[i].Worker = 0
	}
	return out
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var want []Result
	for _, workers := range []int{1, 2, 8} {
		r := &Runner{Workers: workers}
		out, err := r.Run(hashSpec(4, 10))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out.Results) != 40 {
			t.Fatalf("workers=%d: %d results", workers, len(out.Results))
		}
		got := deterministicFields(out.Results)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from serial run", workers)
		}
	}
}

func TestResultsDeliveredInOrdinalOrder(t *testing.T) {
	var seen []int
	r := &Runner{Workers: 8, Sinks: []Sink{OnResult(func(res Result) {
		seen = append(seen, res.Ordinal)
	})}}
	if _, err := r.Run(hashSpec(3, 9)); err != nil {
		t.Fatal(err)
	}
	for i, ord := range seen {
		if ord != i {
			t.Fatalf("sink saw ordinal %d at position %d", ord, i)
		}
	}
	if len(seen) != 27 {
		t.Fatalf("sink saw %d results", len(seen))
	}
}

func TestPanicIsolation(t *testing.T) {
	spec := &Spec{Name: "panicky", SeedBase: 1, Points: []Point{{
		Label:  "p",
		Trials: 20,
		Run: func(t Trial) (any, error) {
			if t.Index == 7 {
				panic("simulated world exploded")
			}
			return t.Index, nil
		},
	}}}
	r := &Runner{Workers: 4}
	out, err := r.Run(spec)
	if err != nil {
		t.Fatalf("campaign must survive a panicking trial: %v", err)
	}
	if len(out.Results) != 20 {
		t.Fatalf("lost trials: %d/20 results", len(out.Results))
	}
	if out.Metrics.Trials != 20 || out.Metrics.Failed != 1 || out.Metrics.Panicked != 1 ||
		out.Metrics.Succeeded != 19 {
		t.Fatalf("metrics = %+v", out.Metrics)
	}
	bad := out.Results[7]
	if !bad.Panicked || bad.Err == nil {
		t.Fatalf("trial 7 not reported as panicked: %+v", bad)
	}
	var pe *PanicError
	if !errors.As(bad.Err, &pe) {
		t.Fatalf("err %T, want *PanicError", bad.Err)
	}
	if pe.Value != "simulated world exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic detail lost: %+v", pe)
	}
	for i, res := range out.Results {
		if i != 7 && res.Err != nil {
			t.Errorf("healthy trial %d failed: %v", i, res.Err)
		}
	}
}

func TestFailFastIsDeterministic(t *testing.T) {
	spec := func() *Spec {
		return &Spec{Name: "ff", SeedBase: 1, Points: []Point{{
			Label:  "p",
			Trials: 30,
			Run: func(t Trial) (any, error) {
				if t.Index == 11 || t.Index == 23 {
					return nil, fmt.Errorf("boom at %d", t.Index)
				}
				return t.Index, nil
			},
		}}}
	}
	var wantErr string
	for _, workers := range []int{1, 8} {
		r := &Runner{Workers: workers, FailFast: true}
		out, err := r.Run(spec())
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		var te *TrialError
		if !errors.As(err, &te) || te.Index != 11 {
			t.Fatalf("workers=%d: err %v, want first in-order failure at trial 11", workers, err)
		}
		if len(out.Results) != 12 {
			t.Fatalf("workers=%d: %d results, want 12 (0..11)", workers, len(out.Results))
		}
		if wantErr == "" {
			wantErr = err.Error()
		} else if err.Error() != wantErr {
			t.Fatalf("workers=%d: error %q differs from serial %q", workers, err, wantErr)
		}
	}
}

func TestTrialTimeout(t *testing.T) {
	spec := &Spec{Name: "slow", SeedBase: 1, Points: []Point{{
		Label:  "p",
		Trials: 3,
		Run: func(t Trial) (any, error) {
			if t.Index == 1 {
				time.Sleep(5 * time.Second)
			}
			return t.Index, nil
		},
	}}}
	r := &Runner{Workers: 3, Timeout: 50 * time.Millisecond}
	start := time.Now()
	out, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline did not cut the slow trial loose")
	}
	slow := out.Results[1]
	if !slow.TimedOut || !errors.Is(slow.Err, ErrTimeout) {
		t.Fatalf("slow trial = %+v", slow)
	}
	if out.Metrics.TimedOut != 1 || out.Metrics.Failed != 1 {
		t.Fatalf("metrics = %+v", out.Metrics)
	}
}

// TestTimedOutArenaNeverReturns: an attempt that exceeds Runner.Timeout
// leaves its goroutine running on the trial's arena, so no later trial
// may get that arena: not the retry, not the worker's next trials (even
// though the retry succeeded) and not a later run, which takes its arenas
// from the free list the first run's worker returns to. The abandoned
// goroutine keeps writing to its arena until the test ends, so under
// -race a reuse is also a reported race.
func TestTimedOutArenaNeverReturns(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var mu sync.Mutex
	var abandoned *sim.Arena
	got := map[*sim.Arena][]string{} // arena → the trials it was handed to
	hung := false
	spec := func(name string) *Spec {
		return &Spec{Name: name, SeedBase: 1, Points: []Point{{
			Label:  "p",
			Trials: 6,
			Run: func(tr Trial) (any, error) {
				a := tr.Arena
				mu.Lock()
				hang := name == "first" && tr.Index == 0 && !hung
				if hang {
					hung, abandoned = true, a
				} else {
					got[a] = append(got[a], fmt.Sprintf("%s/%d", name, tr.Index))
				}
				mu.Unlock()
				for hang {
					select {
					case <-release:
						return nil, nil
					default:
						a.Bytes().Alloc(8)[0] = 1
						time.Sleep(time.Millisecond)
					}
				}
				if a != nil {
					a.Bytes().Alloc(8)[0] = 2
				}
				return tr.Index, nil
			},
		}}}
	}
	out, err := (&Runner{Workers: 1, Timeout: 50 * time.Millisecond, Retries: 1}).Run(spec("first"))
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Results[0]; r.Attempts != 2 || r.Err != nil {
		t.Fatalf("trial 0 = %+v, want a timed-out attempt and a successful retry", r)
	}
	for i := 0; i < 3; i++ {
		if _, err := (&Runner{Workers: 2}).Run(spec(fmt.Sprintf("later%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if abandoned == nil {
		t.Fatal("the hanging attempt ran without an arena")
	}
	if trials := got[abandoned]; len(trials) > 0 {
		t.Fatalf("the timed-out attempt's arena was handed to %v", trials)
	}
}

func TestRetries(t *testing.T) {
	var mu sync.Mutex
	calls := map[int]int{}
	spec := &Spec{Name: "flaky", SeedBase: 1, Points: []Point{{
		Label:  "p",
		Trials: 6,
		Run: func(t Trial) (any, error) {
			mu.Lock()
			calls[t.Index]++
			n := calls[t.Index]
			mu.Unlock()
			if t.Index%2 == 0 && n == 1 {
				return nil, errors.New("flaky first attempt")
			}
			return t.Index, nil
		},
	}}}
	r := &Runner{Workers: 2, Retries: 1}
	out, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Failed != 0 || out.Metrics.Retried != 3 {
		t.Fatalf("metrics = %+v", out.Metrics)
	}
	for _, res := range out.Results {
		wantAttempts := 1
		if res.Index%2 == 0 {
			wantAttempts = 2
		}
		if res.Attempts != wantAttempts || res.Err != nil {
			t.Fatalf("trial %d: %+v", res.Index, res)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	// Default: seeds come from (SeedBase, label, index) and differ across
	// both points and indices.
	seen := map[uint64]string{}
	for _, label := range []string{"a", "b"} {
		for i := 0; i < 5; i++ {
			s := DeriveSeed(1000, label, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%d vs %s", label, i, prev)
			}
			seen[s] = fmt.Sprintf("%s/%d", label, i)
		}
	}
	// Point.Seed overrides the derivation (the experiments layer keeps its
	// historical linear layout this way).
	spec := &Spec{Name: "override", SeedBase: 7, Points: []Point{{
		Label:  "p",
		Trials: 3,
		Seed:   func(i int) uint64 { return 5000 + uint64(i) },
		Run:    func(t Trial) (any, error) { return t.Seed, nil },
	}}}
	out, err := (&Runner{Workers: 2}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if res.Seed != 5000+uint64(i) || res.Value.(uint64) != res.Seed {
			t.Fatalf("trial %d seed override broken: %+v", i, res)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	spec := &Spec{Name: "jl", SeedBase: 9, Points: []Point{{
		Label:  "p",
		Trials: 4,
		Run: func(t Trial) (any, error) {
			if t.Index == 2 {
				return nil, errors.New("nope")
			}
			return map[string]int{"attempts": t.Index + 1}, nil
		},
	}}}
	if _, err := (&Runner{Workers: 2, Sinks: []Sink{jl}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	if jl.Err() != nil {
		t.Fatal(jl.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 4 results + metrics
		t.Fatalf("%d lines:\n%s", len(lines), buf.String())
	}
	var kinds []string
	for _, line := range lines {
		var probe struct {
			Kind string `json:"kind"`
			OK   bool   `json:"ok"`
			Err  string `json:"err"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds = append(kinds, probe.Kind)
		if probe.Kind == "result" && !probe.OK && probe.Err != "nope" {
			t.Fatalf("failed result line lost its error: %q", line)
		}
	}
	want := []string{"campaign", "result", "result", "result", "result", "metrics"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("line kinds = %v", kinds)
	}
}

func TestTrackerSnapshot(t *testing.T) {
	tr := NewTracker()
	spec := &Spec{Name: "trk", SeedBase: 3, Points: []Point{
		{Label: "a", Trials: 3, Run: func(t Trial) (any, error) { return nil, nil }},
		{Label: "b", Trials: 2, Run: func(t Trial) (any, error) { return nil, errors.New("x") }},
	}}
	if _, err := (&Runner{Workers: 4, Sinks: []Sink{tr}}).Run(spec); err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	if s.Total != 5 || s.Done != 5 || s.Failed != 2 || s.Fraction() != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Points) != 2 || s.Points[0].Label != "a" || s.Points[1].Failed != 2 {
		t.Fatalf("point progress = %+v", s.Points)
	}
}

func TestMetricsUtilization(t *testing.T) {
	m := Metrics{Workers: 4, Wall: time.Second, Busy: 2 * time.Second}
	if u := m.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %f", u)
	}
	if (Metrics{}).Utilization() != 0 {
		t.Fatal("zero metrics utilization")
	}
}

func TestEmptyAndInvalidSpecs(t *testing.T) {
	out, err := (&Runner{}).Run(&Spec{Name: "empty"})
	if err != nil || len(out.Results) != 0 || out.Metrics.Trials != 0 {
		t.Fatalf("empty spec: %v %+v", err, out)
	}
	_, err = (&Runner{}).Run(&Spec{Name: "bad", Points: []Point{{Label: "p", Trials: 1}}})
	if err == nil {
		t.Fatal("nil Run accepted")
	}
}
