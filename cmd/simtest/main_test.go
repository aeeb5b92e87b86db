package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runCapture(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(argv, &out, &errb)
	return code, out.String(), errb.String()
}

// writeSpec writes a spec file into the test's temp directory.
func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFlagError(t *testing.T) {
	code, _, stderr := runCapture(t, "-nonsense")
	if code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "nonsense") {
		t.Fatalf("stderr does not mention the bad flag: %q", stderr)
	}
	if code, _, _ = runCapture(t, "stray"); code != 2 {
		t.Fatalf("stray positional arg: exit %d, want 2", code)
	}
}

// TestRunBadOverride: a world override the swarm cannot run — a missing or
// inadmissible spec file, a spec without a seed, a negative fault factor —
// exits 2 with a reason.
func TestRunBadOverride(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want string
	}{
		{"missing file", []string{"-seed", "3", "-spec", filepath.Join(t.TempDir(), "none.json")}, "no such file"},
		{"unknown field", []string{"-seed", "3", "-spec", writeSpec(t, `{"version":1,"nope":1}`)}, "nope"},
		{"inadmissible", []string{"-seed", "3", "-spec", writeSpec(t, `{"version":1,"conn":{"interval":2}}`)}, "conn.interval"},
		{"no seed", []string{"-spec", writeSpec(t, `{"version":1}`)}, "-spec needs -seed"},
		{"negative fault", []string{"-worlds", "2", "-break-widening", "-1"}, "positive factor"},
	} {
		code, _, stderr := runCapture(t, tc.argv...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 mentioning %q", tc.name, code, stderr, tc.want)
		}
	}
}

func TestRunSingleWorldPasses(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-seed", "3", "-spec", writeSpec(t, `{"version":1,"run":{"sim_seconds":8}}`))
	if code != 0 {
		t.Fatalf("default world: exit %d (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "all invariants hold") {
		t.Fatalf("missing pass banner: %q", stdout)
	}
}

// TestRunBrokenWideningShrinks plants the widening fault in the default
// spec, shrinks it, and runs the printed repro: it must reproduce the
// violation.
func TestRunBrokenWideningShrinks(t *testing.T) {
	code, stdout, _ := runCapture(t,
		"-seed", "99", "-spec", writeSpec(t, `{"version":1,"run":{"sim_seconds":8}}`),
		"-break-widening", "0.5", "-shrink")
	if code != 1 {
		t.Fatalf("broken widening: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "widening-eq4") {
		t.Fatalf("violation not reported: %q", stdout)
	}
	m := regexp.MustCompile(`repro: echo '(.*)' > (\S+) && go run ./cmd/simtest (.*)\n`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("repro command missing: %q", stdout)
	}
	if !strings.Contains(m[3], "-seed 99") || !strings.Contains(m[3], "-break-widening 0.5") {
		t.Fatalf("repro command incomplete: %q", m[0])
	}
	specPath := writeSpec(t, m[1])
	argv := strings.Fields(strings.ReplaceAll(m[3], m[2], specPath))
	code, stdout, _ = runCapture(t, argv...)
	if code != 1 || !strings.Contains(stdout, "widening-eq4") {
		t.Fatalf("repro %v: exit %d, want the violation again:\n%s", argv, code, stdout)
	}
}

func TestRunSwarmSmoke(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-worlds", "4", "-seed-base", "42000", "-v")
	if code != 0 {
		t.Fatalf("swarm: exit %d (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "seeds [42000, 42004)") {
		t.Fatalf("seed range not logged: %q", stdout)
	}
	if got := strings.Count(stdout, "seed 4200"); got != 4 {
		t.Fatalf("-v printed %d world lines, want 4:\n%s", got, stdout)
	}
}

// TestRunExampleSpecs runs every point of the committed example specs at
// one seed through the fork check: every invariant must hold on both
// timelines, the replay must be identical, and every point must reach an
// attacked, synchronised connection so the check is not vacuous.
func TestRunExampleSpecs(t *testing.T) {
	for spec, points := range map[string]int{"exp1": 6, "ablation-sca": 5, "fleet-update": 4} {
		path := filepath.Join("..", "..", "examples", "scenarios", spec+".json")
		code, stdout, stderr := runCapture(t, "-seed", "3", "-fork", "-spec", path)
		if code != 0 {
			t.Errorf("%s: exit %d (stderr %q)\n%s", spec, code, stderr, stdout)
			continue
		}
		if got := strings.Count(stdout, "fork replay identical"); got != points {
			t.Errorf("%s: %d points held, want %d:\n%s", spec, got, points, stdout)
		}
		if got := strings.Count(stdout, "connected=true synced=true"); got != points {
			t.Errorf("%s: %d of %d points synchronised:\n%s", spec, got, points, stdout)
		}
	}
}
