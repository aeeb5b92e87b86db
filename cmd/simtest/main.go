// Command simtest runs the cross-layer invariant swarm from the command
// line: randomized worlds for soak testing, single-seed reproduction, and
// seed shrinking.
//
//	simtest -worlds 500                 # swarm over seeds [1, 501)
//	simtest -seed 42                    # rerun one generated world
//	simtest -seed 42 -shrink            # ...and minimise it if it fails
//	simtest -seed 42 -base -p breakWidening=0.5   # explicit world
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"injectable/internal/simtest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// paramFlags collects repeated -p key=value overrides.
type paramFlags []string

func (p *paramFlags) String() string { return strings.Join(*p, ",") }

func (p *paramFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
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
		base     = fs.Bool("base", false, "start from default parameters instead of generating from the seed")
		verbose  = fs.Bool("v", false, "print one line per world")
		overs    paramFlags
	)
	fs.Var(&overs, "p", "override a parameter (key=value, repeatable; run with an unknown key to list them)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "simtest: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	mutate := func(p *simtest.Params) error {
		if *base {
			*p = simtest.DefaultParams()
		}
		for _, kv := range overs {
			key, value, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("simtest: -p wants key=value, got %q", kv)
			}
			if err := p.Set(key, value); err != nil {
				return err
			}
		}
		return nil
	}

	if *seed >= 0 {
		return runOne(uint64(*seed), mutate, *shrink, *fork, stdout, stderr)
	}
	return runSwarm(*seedBase, *worlds, *parallel, mutate, *shrink, *fork, *verbose, stdout, stderr)
}

// runOne reruns a single world (optionally shrinking a failure).
func runOne(seed uint64, mutate func(*simtest.Params) error, shrink, fork bool, stdout, stderr io.Writer) int {
	p := simtest.Generate(seed)
	if err := mutate(&p); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	runWorld, shrinkWorld := simtest.RunWorld, simtest.Shrink
	if fork {
		runWorld, shrinkWorld = simtest.RunWorldFork, simtest.ShrinkFork
	}
	res, err := runWorld(seed, p)
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
		s, err := shrinkWorld(seed, p)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "shrunk in %d runs to %d parameter(s): %v\nrepro: %s\n",
			s.Runs, len(s.Minimal.Diff()), s.Minimal, s.ReproCommand())
	}
	return 1
}

// runSwarm runs the randomized swarm and reports failures.
func runSwarm(seedBase uint64, worlds, parallel int, mutate func(*simtest.Params) error, shrink, fork, verbose bool, stdout, stderr io.Writer) int {
	// Swarm workers call Mutate concurrently; the first error wins.
	var (
		mutateOnce sync.Once
		mutateErr  error
	)
	sum, err := simtest.Swarm(simtest.SwarmConfig{
		SeedBase: seedBase,
		Worlds:   worlds,
		Parallel: parallel,
		Fork:     fork,
		Mutate: func(p *simtest.Params) {
			if err := mutate(p); err != nil {
				mutateOnce.Do(func() { mutateErr = err })
			}
		},
		OnResult: func(r simtest.Result) {
			if verbose {
				printWorld(stdout, r)
			}
		},
	})
	if mutateErr != nil {
		fmt.Fprintln(stderr, mutateErr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "swarm: %d worlds over seeds [%d, %d), %d connected, scenarios %v\n",
		sum.Worlds, seedBase, seedBase+uint64(worlds), sum.Connected, scenarioLine(sum.ByScenario))
	for _, e := range sum.Errors {
		fmt.Fprintf(stdout, "ERROR %v\n", e)
	}
	for _, f := range sum.Failures {
		fmt.Fprintf(stdout, "FAIL seed %d (%v): %d violation(s), first: %v\n",
			f.Seed, f.Params, len(f.Violations)+f.Truncated, f.Violations[0])
		if shrink {
			shrinkWorld := simtest.Shrink
			if fork {
				shrinkWorld = simtest.ShrinkFork
			}
			s, err := shrinkWorld(f.Seed, f.Params)
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
	fmt.Fprintf(w, "seed %d: %s connected=%t windows=%d injectTx=%d [%v]\n",
		r.Seed, status, r.Connected, r.Windows, r.InjectTx, r.Params)
}

// scenarioLine renders scenario counts deterministically.
func scenarioLine(m map[string]int) string {
	var parts []string
	for _, s := range simtest.Scenarios() {
		if n := m[s]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", s, n))
		}
	}
	return strings.Join(parts, " ")
}
