package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const benchOut = `goos: linux
BenchmarkInject-8   	    1000	      1200 ns/op	     128 B/op	       3 allocs/op
BenchmarkSniff-8    	    2000	       800 ns/op	      64 B/op	       2 allocs/op
PASS
`

// benchOutRegressed doubles Inject's allocations against benchOut.
const benchOutRegressed = `BenchmarkInject-8   	    1000	      1210 ns/op	     128 B/op	       6 allocs/op
BenchmarkSniff-8    	    2000	       790 ns/op	      64 B/op	       2 allocs/op
`

func runBenchjson(t *testing.T, stdin string, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(argv, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunFlagErrors(t *testing.T) {
	if code, _, _ := runBenchjson(t, benchOut, "-nonsense"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	// Exactly one of -o / -check.
	if code, _, stderr := runBenchjson(t, benchOut); code != 2 || !strings.Contains(stderr, "exactly one") {
		t.Fatalf("no mode: exit %d stderr %q", code, stderr)
	}
	if code, _, _ := runBenchjson(t, benchOut, "-o", "-", "-check", "x.json"); code != 2 {
		t.Fatal("both modes accepted")
	}
	if code, _, stderr := runBenchjson(t, "no benchmarks here\n", "-o", "-"); code != 2 ||
		!strings.Contains(stderr, "no benchmark result lines") {
		t.Fatalf("empty input: exit %d stderr %q", code, stderr)
	}
}

func TestRunConvertToStdout(t *testing.T) {
	code, stdout, stderr := runBenchjson(t, benchOut, "-o", "-")
	if code != 0 {
		t.Fatalf("convert: exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"BenchmarkInject-8", "BenchmarkSniff-8", "ns/op"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("JSON output missing %q:\n%s", want, stdout)
		}
	}
}

// baseline writes benchOut's JSON to a temp file and returns its path.
func baseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if code, _, stderr := runBenchjson(t, benchOut, "-o", path); code != 0 {
		t.Fatalf("writing baseline: exit %d, stderr %q", code, stderr)
	}
	return path
}

func TestRunCheckGatePasses(t *testing.T) {
	code, stdout, stderr := runBenchjson(t, benchOut, "-check", baseline(t))
	if code != 0 {
		t.Fatalf("identical run failed the gate: exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "regression gate passed") {
		t.Fatalf("missing pass banner: %q", stdout)
	}
}

func TestRunCheckGateFailsOnAllocRegression(t *testing.T) {
	code, stdout, stderr := runBenchjson(t, benchOutRegressed, "-check", baseline(t))
	if code != 1 {
		t.Fatalf("alloc regression not fatal: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stderr, "FAILED") {
		t.Fatalf("missing failure banner: %q", stderr)
	}
	if !strings.Contains(stdout, "BenchmarkInject-8") {
		t.Fatalf("report does not name the regressed benchmark:\n%s", stdout)
	}
}

func TestRunCheckGateFailsOnGoneRow(t *testing.T) {
	onlyInject := "BenchmarkInject-8   \t    1000\t      1200 ns/op\t     128 B/op\t       3 allocs/op\n"
	code, stdout, stderr := runBenchjson(t, onlyInject, "-check", baseline(t))
	if code != 1 {
		t.Fatalf("baseline row missing from the run: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "GONE  BenchmarkSniff-8") || !strings.Contains(stderr, "FAILED") {
		t.Fatalf("report does not fail on the gone row:\n%s%s", stdout, stderr)
	}
}

// The baseline rows carry a -8 suffix; a run at another GOMAXPROCS names
// every row differently and must fail instead of comparing nothing.
func TestRunCheckGateFailsWhenNothingMatches(t *testing.T) {
	otherProcs := strings.ReplaceAll(benchOut, "-8 ", "-2 ")
	code, stdout, stderr := runBenchjson(t, otherProcs, "-check", baseline(t))
	if code != 1 {
		t.Fatalf("run matching no baseline row: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "no benchmark in this run matches") || strings.Contains(stdout, "gate passed") {
		t.Fatalf("report does not fail on zero matched rows:\n%s%s", stdout, stderr)
	}
}

func TestRunCheckMissingBaseline(t *testing.T) {
	if code, _, stderr := runBenchjson(t, benchOut, "-check", filepath.Join(t.TempDir(), "absent.json")); code != 2 ||
		!strings.Contains(stderr, "baseline") {
		t.Fatalf("missing baseline: exit %d stderr %q", code, stderr)
	}
}
