// Command simtest runs the cross-layer invariant swarm from the command
// line: randomized worlds for soak testing, single-seed reproduction,
// scenario spec files, and shrinking. Every world is an admitted scenario
// spec built by the production world builder.
//
//	simtest -worlds 500                 # swarm over seeds [1, 501)
//	simtest -seed 42                    # rerun one generated world
//	simtest -seed 42 -shrink            # ...and minimise it if it fails
//	simtest -seed 1 -spec examples/scenarios/exp1.json -fork   # every point of a spec
//	simtest -seed 99 -spec min.json -break-widening 0.5        # a shrunk repro
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"injectable/internal/scenario"
	"injectable/internal/simtest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", -1, "run a single world with this seed (default: swarm mode)")
		worlds   = fs.Int("worlds", 50, "swarm mode: number of consecutive seeds to run")
		seedBase = fs.Uint64("seed-base", 1, "swarm mode: first seed")
		parallel = fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS); results are identical at any value")
		shrink   = fs.Bool("shrink", false, "on failure, minimise the world and print a repro command")
		fork     = fs.Bool("fork", false, "fork-equivalence mode: snapshot each world mid-run, replay it, and require identical timelines")
		specFile = fs.String("spec", "", "run every point of this scenario spec file at -seed instead of the generated world")
		jam      = fs.Bool("jammer", false, "add the periodic noise jammer to every world")
		breakW   = fs.Float64("break-widening", 0, "self-test fault: scale the victim's widening by this factor behind the checker's back")
		verbose  = fs.Bool("v", false, "print one line per world")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "simtest: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *breakW < 0 {
		fmt.Fprintf(stderr, "simtest: -break-widening %v: want a positive factor\n", *breakW)
		return 2
	}
	knobs := func(w *simtest.World) {
		w.Jammer = w.Jammer || *jam
		if *breakW > 0 {
			w.BreakWidening = *breakW
		}
	}

	if *specFile != "" {
		if *seed < 0 {
			fmt.Fprintln(stderr, "simtest: -spec needs -seed")
			return 2
		}
		points, err := loadSpec(*specFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		code := 0
		for _, v := range points {
			w := simtest.World{Spec: v.Spec}
			knobs(&w)
			fmt.Fprintf(stdout, "point %s:\n", v.Label)
			code = max(code, runOne(uint64(*seed), w, *shrink, *fork, stdout, stderr))
		}
		return code
	}
	if *seed >= 0 {
		w := simtest.Generate(uint64(*seed))
		knobs(&w)
		return runOne(uint64(*seed), w, *shrink, *fork, stdout, stderr)
	}
	return runSwarm(*seedBase, *worlds, *parallel, knobs, *shrink, *fork, *verbose, stdout, stderr)
}

// loadSpec decodes and admits a spec file and expands its sweep points.
func loadSpec(path string) ([]scenario.Variant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("simtest: %w", err)
	}
	s, err := scenario.DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	if err := scenario.Validate(s, 1, scenario.DefaultLimits); err != nil {
		return nil, err
	}
	return scenario.Expand(s)
}

// runOne runs a single world (optionally shrinking a failure).
func runOne(seed uint64, w simtest.World, shrink, fork bool, stdout, stderr io.Writer) int {
	runWorld, shrinkWorld := simtest.RunWorld, simtest.Shrink
	if fork {
		runWorld, shrinkWorld = simtest.RunWorldFork, simtest.ShrinkFork
	}
	res, err := runWorld(seed, w)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	printWorld(stdout, res)
	if !res.Failed() {
		if fork {
			fmt.Fprintf(stdout, "seed %d: all invariants hold, fork replay identical\n", seed)
		} else {
			fmt.Fprintf(stdout, "seed %d: all invariants hold\n", seed)
		}
		return 0
	}
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "  %v\n", v)
	}
	if res.Truncated > 0 {
		fmt.Fprintf(stdout, "  ... and %d more\n", res.Truncated)
	}
	if shrink {
		s, err := shrinkWorld(seed, w)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		entries := s.Minimal.Entries()
		fmt.Fprintf(stdout, "shrunk in %d runs to %d non-default entries: %s\nrepro: %s\n",
			s.Runs, len(entries), strings.Join(entries, " "), s.ReproCommand())
	}
	return 1
}

// runSwarm runs the randomized swarm and reports failures.
func runSwarm(seedBase uint64, worlds, parallel int, knobs func(*simtest.World), shrink, fork, verbose bool, stdout, stderr io.Writer) int {
	sum, err := simtest.Swarm(simtest.SwarmConfig{
		SeedBase: seedBase,
		Worlds:   worlds,
		Parallel: parallel,
		Fork:     fork,
		Mutate:   knobs,
		OnResult: func(r simtest.Result) {
			if verbose {
				printWorld(stdout, r)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "swarm: %d worlds over seeds [%d, %d), %d connected, goals %s\n",
		sum.Worlds, seedBase, seedBase+uint64(worlds), sum.Connected, goalLine(sum.ByGoal))
	for _, e := range sum.Errors {
		fmt.Fprintf(stdout, "ERROR %v\n", e)
	}
	for _, f := range sum.Failures {
		fmt.Fprintf(stdout, "FAIL seed %d (%v): %d violation(s), first: %v\n",
			f.Seed, f.World, len(f.Violations)+f.Truncated, f.Violations[0])
		if shrink {
			shrinkWorld := simtest.Shrink
			if fork {
				shrinkWorld = simtest.ShrinkFork
			}
			s, err := shrinkWorld(f.Seed, f.World)
			if err != nil {
				fmt.Fprintf(stderr, "shrink seed %d: %v\n", f.Seed, err)
				continue
			}
			fmt.Fprintf(stdout, "  shrunk in %d runs: %s\n", s.Runs, s.ReproCommand())
		} else {
			repro := fmt.Sprintf("go run ./cmd/simtest -seed %d -shrink", f.Seed)
			if fork {
				repro += " -fork"
			}
			fmt.Fprintf(stdout, "  repro: %s\n", repro)
		}
	}
	if sum.Failed() {
		return 1
	}
	fmt.Fprintln(stdout, "all invariants hold")
	return 0
}

// printWorld renders a one-line world summary.
func printWorld(w io.Writer, r simtest.Result) {
	status := "ok"
	if r.Failed() {
		status = fmt.Sprintf("FAIL(%d)", len(r.Violations)+r.Truncated)
	}
	fmt.Fprintf(w, "seed %d: %s connected=%t synced=%t windows=%d injectTx=%d [%v]\n",
		r.Seed, status, r.Connected, r.SnifferSynced, r.Windows, r.InjectTx, r.World)
}

// goalLine renders goal counts deterministically.
func goalLine(m map[string]int) string {
	var parts []string
	for g, n := range m {
		parts = append(parts, fmt.Sprintf("%s:%d", g, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
