// Command benchjson converts `go test -bench` output into a stable JSON
// document and compares two such documents as a benchmark-regression gate.
//
// The repository has no external benchstat dependency; this tool covers the
// two workflows CI needs:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	go test -bench . -benchmem ./... | benchjson -check BENCH_3.json
//
// Convert mode parses standard benchmark result lines — including custom
// metrics such as "attempts/op" reported via b.ReportMetric — and writes
// one JSON object. Check mode parses the current run from stdin and fails
// (exit 1) when, against the baseline:
//
//   - allocs/op increased at all (allocation counts are deterministic, so
//     any increase is a real regression), or
//   - ns/op increased by more than -ns-threshold percent (default 30; CI
//     timing is noisy, so this is a coarse tripwire, not a microscope), or
//   - a baseline row is missing from the run, or no row of the run
//     matches a baseline row. Rows match by exact name, so record and
//     check with the same -cpu setting (the committed baselines use
//     -cpu 1, which adds no -N suffix).
//
// Run rows with no baseline are reported and skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"injectable/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out             = fs.String("o", "", "write parsed benchmarks as JSON to this file (- for stdout)")
		check           = fs.String("check", "", "compare stdin's benchmarks against this baseline JSON; exit 1 on regression")
		nsThreshold     = fs.Float64("ns-threshold", 30, "percent ns/op increase tolerated in -check mode (allocs/op tolerates none)")
		allocsThreshold = fs.Float64("allocs-threshold", 0, "percent allocs/op increase tolerated in -check mode (0 = strict; use for HTTP-path benches whose counts wobble)")
		nsFatal         = fs.Bool("ns-fatal", false, "treat ns/op threshold breaches as failures instead of warnings")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if (*out == "") == (*check == "") {
		fmt.Fprintln(stderr, "benchjson: exactly one of -o or -check is required")
		return 2
	}

	cur, err := benchfmt.Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: parsing stdin: %v\n", err)
		return 2
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark result lines on stdin")
		return 2
	}

	if *out != "" {
		if err := write(*out, stdout, cur); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 2
		}
		return 0
	}

	base, err := read(*check)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: reading baseline: %v\n", err)
		return 2
	}
	report := benchfmt.Compare(base, cur, benchfmt.GateConfig{
		NSThresholdPct:    *nsThreshold,
		NSFatal:           *nsFatal,
		AllocThresholdPct: *allocsThreshold,
	})
	for _, line := range report.Lines {
		fmt.Fprintln(stdout, line)
	}
	if report.Failed {
		fmt.Fprintln(stderr, "benchjson: regression gate FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "benchjson: regression gate passed")
	return 0
}

func write(path string, stdout io.Writer, s *benchfmt.Suite) error {
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Stable order for committed baselines.
	sort.Slice(s.Benchmarks, func(i, j int) bool { return s.Benchmarks[i].Name < s.Benchmarks[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func read(path string) (*benchfmt.Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s benchfmt.Suite
	if err := json.NewDecoder(f).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
