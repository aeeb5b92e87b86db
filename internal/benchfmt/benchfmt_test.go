package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: injectable
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableIFrameCodec   	20619765	        56.57 ns/op	      32 B/op	       2 allocs/op
BenchmarkFig9Exp1HopInterval/interval-25         	      25	  52706246 ns/op	         2.400 attempts/op	         0 failures	28185318 B/op	  491804 allocs/op
BenchmarkScenarioA/lightbulb                     	      25	  15997849 ns/op	         1.000 successRate	10025677 B/op	  173175 allocs/op
PASS
ok  	injectable	3.069s
`

func TestParse(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Goos != "linux" || s.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", s.Goos, s.Goarch)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(s.Benchmarks))
	}
	b := s.Benchmarks[1]
	if b.Name != "BenchmarkFig9Exp1HopInterval/interval-25" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Iterations != 25 {
		t.Errorf("iterations = %d", b.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 52706246, "attempts/op": 2.4, "failures": 0,
		"B/op": 28185318, "allocs/op": 491804,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metric %q = %v, want %v", unit, got, want)
		}
	}
}

func TestParseSkipsNoise(t *testing.T) {
	in := "random text\nBenchmarkBad notanumber 1 ns/op\nBenchmarkOK 10 5.0 ns/op\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks = %+v", s.Benchmarks)
	}
}

func TestParseLastOccurrenceWins(t *testing.T) {
	in := "BenchmarkX 10 5.0 ns/op\nBenchmarkX 20 4.0 ns/op\n"
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].Metrics["ns/op"] != 4.0 {
		t.Fatalf("benchmarks = %+v", s.Benchmarks)
	}
}

func suiteOf(bs ...Benchmark) *Suite { return &Suite{Benchmarks: bs} }

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 100, 6))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if !rep.Failed {
		t.Fatalf("allocs/op 5→6 did not fail the gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareAllocZeroStaysZero(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 0))
	cur := suiteOf(bench("BenchmarkA", 120, 1))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if !rep.Failed {
		t.Fatal("allocs/op 0→1 did not fail the gate")
	}
}

func TestCompareNSWithinThresholdPasses(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 120, 5))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if rep.Failed {
		t.Fatalf("+20%% ns/op failed a 30%% gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareNSBeyondThresholdWarnsByDefault(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 200, 5))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	if rep.Failed {
		t.Fatal("ns/op breach failed the gate without NSFatal")
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "warn") {
		t.Fatalf("no warning for a 100%% ns/op increase:\n%s", joined)
	}
	rep = Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if !rep.Failed {
		t.Fatal("ns/op breach passed the gate with NSFatal set")
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 40, 1))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if rep.Failed {
		t.Fatalf("improvement failed the gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}

func TestCompareMissingBenchmarksSkipped(t *testing.T) {
	base := suiteOf(bench("BenchmarkOld", 100, 5))
	cur := suiteOf(bench("BenchmarkOld", 100, 5), bench("BenchmarkNew", 100, 50))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, NSFatal: true})
	if rep.Failed {
		t.Fatalf("a run row with no baseline failed the gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "NEW   BenchmarkNew") {
		t.Fatalf("missing NEW marker:\n%s", joined)
	}
}

func TestCompareGoneBaselineRowFails(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 5), bench("BenchmarkB", 100, 5))
	cur := suiteOf(bench("BenchmarkA", 100, 5))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
	joined := strings.Join(rep.Lines, "\n")
	if !rep.Failed {
		t.Fatalf("a baseline row missing from the run passed the gate:\n%s", joined)
	}
	if !strings.Contains(joined, "GONE  BenchmarkB") {
		t.Fatalf("missing GONE marker:\n%s", joined)
	}
}

// A run at GOMAXPROCS > 1 names its rows with a -N suffix, so none match
// a baseline recorded at -cpu 1: the gate must not pass on zero rows.
func TestCompareNoMatchedRowFails(t *testing.T) {
	for name, base := range map[string]*Suite{
		"suffixed run": suiteOf(bench("BenchmarkA", 100, 5)),
		"empty base":   suiteOf(),
	} {
		cur := suiteOf(bench("BenchmarkA-2", 100, 5))
		rep := Compare(base, cur, GateConfig{NSThresholdPct: 30})
		joined := strings.Join(rep.Lines, "\n")
		if !rep.Failed {
			t.Fatalf("%s: a run matching no baseline row passed the gate:\n%s", name, joined)
		}
		if !strings.Contains(joined, "no benchmark in this run matches") {
			t.Fatalf("%s: report does not say nothing matched:\n%s", name, joined)
		}
	}
}

func TestCompareAllocThresholdTolerates(t *testing.T) {
	base := suiteOf(bench("BenchmarkA", 100, 100))
	cur := suiteOf(bench("BenchmarkA", 100, 108))
	rep := Compare(base, cur, GateConfig{NSThresholdPct: 30, AllocThresholdPct: 10})
	if rep.Failed {
		t.Fatalf("+8%% allocs/op failed a 10%% gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
	cur = suiteOf(bench("BenchmarkA", 100, 115))
	rep = Compare(base, cur, GateConfig{NSThresholdPct: 30, AllocThresholdPct: 10})
	if !rep.Failed {
		t.Fatalf("+15%% allocs/op passed a 10%% gate:\n%s", strings.Join(rep.Lines, "\n"))
	}
}
