// Package benchfmt parses `go test -bench` output into structured records
// and compares two runs as a regression gate. It is the in-repo stand-in
// for benchstat: no external dependency, tuned to the two decisions CI
// actually makes (allocation counts may never rise; wall time may not rise
// past a coarse threshold).
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// -N GOMAXPROCS suffix as printed, e.g. "BenchmarkDeliver-8".
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value, e.g. "ns/op": 19.7, "allocs/op": 0,
	// "B/op": 0, plus any custom units from b.ReportMetric such as
	// "attempts/op".
	Metrics map[string]float64 `json:"metrics"`
}

// Suite is a parsed benchmark run.
type Suite struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output. Non-benchmark lines (headers, PASS,
// ok, build noise) are skipped. Repeated lines for the same name (e.g.
// -count=N) keep the last occurrence.
func Parse(r io.Reader) (*Suite, error) {
	s := &Suite{}
	idx := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			s.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		if i, seen := idx[b.Name]; seen {
			s.Benchmarks[i] = b
		} else {
			idx[b.Name] = len(s.Benchmarks)
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseLine parses one result line:
//
//	BenchmarkName-8   1000   123.4 ns/op   5 B/op   2 allocs/op   1.5 attempts/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// GateConfig tunes Compare.
type GateConfig struct {
	// NSThresholdPct is the tolerated ns/op increase in percent.
	NSThresholdPct float64
	// NSFatal promotes ns/op breaches from warnings to failures.
	NSFatal bool
	// AllocThresholdPct is the tolerated allocs/op increase in percent.
	// The default 0 keeps the strict rule: any increase fails. A small
	// tolerance fits benchmarks whose allocation count is not perfectly
	// deterministic (HTTP paths, pooled buffers warming up).
	AllocThresholdPct float64
}

// Report is the outcome of a Compare.
type Report struct {
	Lines  []string
	Failed bool
}

// Compare gates cur against base. Allocation-count increases always fail;
// ns/op increases beyond the threshold fail only when cfg.NSFatal is set
// (timing on shared CI runners is too noisy for a strict gate). A baseline
// row missing from the run fails, and so does a run that matches no
// baseline row: rows match by exact name, so a renamed benchmark or a
// -N GOMAXPROCS suffix would otherwise leave the gate comparing nothing.
// A run row with no baseline is listed and skipped.
func Compare(base, cur *Suite, cfg GateConfig) Report {
	var rep Report
	baseByName := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	curNames := map[string]bool{}

	names := make([]string, 0, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		names = append(names, b.Name)
		curNames[b.Name] = true
	}
	sort.Strings(names)
	curByName := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}

	matched := 0
	for _, name := range names {
		c := curByName[name]
		b, ok := baseByName[name]
		if !ok {
			rep.Lines = append(rep.Lines, fmt.Sprintf("NEW   %s (no baseline, skipped)", name))
			continue
		}
		matched++
		if line, failed, ok := gateMetric(name, "allocs/op", b, c, cfg.AllocThresholdPct, true); ok {
			rep.Lines = append(rep.Lines, line)
			rep.Failed = rep.Failed || failed
		}
		if line, failed, ok := gateMetric(name, "ns/op", b, c, cfg.NSThresholdPct, cfg.NSFatal); ok {
			rep.Lines = append(rep.Lines, line)
			rep.Failed = rep.Failed || failed
		}
	}
	gone := make([]string, 0)
	for name := range baseByName {
		if !curNames[name] {
			gone = append(gone, fmt.Sprintf("GONE  %s (in baseline, not in this run)", name))
		}
	}
	sort.Strings(gone)
	rep.Lines = append(rep.Lines, gone...)
	if len(gone) > 0 {
		rep.Failed = true
	}
	if matched == 0 {
		rep.Lines = append(rep.Lines, "FAIL  no benchmark in this run matches a baseline row")
		rep.Failed = true
	}
	return rep
}

// gateMetric compares one metric of one benchmark, returning the rendered
// line and whether the regression rule tripped fatally.
func gateMetric(name, unit string, base, cur Benchmark, thresholdPct float64, fatal bool) (line string, failed, ok bool) {
	bv, bok := base.Metrics[unit]
	cv, cok := cur.Metrics[unit]
	if !bok || !cok {
		return "", false, false
	}
	delta := 0.0
	if bv != 0 {
		delta = (cv - bv) / bv * 100
	} else if cv > 0 {
		delta = 100
	}
	status := "ok   "
	if cv > bv && delta > thresholdPct {
		if fatal {
			status = "FAIL "
			failed = true
		} else {
			status = "warn "
		}
	}
	return fmt.Sprintf("%s %-50s %-10s %14.4g -> %-14.4g (%+.1f%%)",
		status, name, unit, bv, cv, delta), failed, true
}
