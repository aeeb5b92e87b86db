// Command experiments regenerates the paper's evaluation: every table and
// figure, the four attack scenarios on all three devices, the encryption
// countermeasure, the IDS study, the prior-art baselines and the design
// ablations.
//
// Usage:
//
//	experiments -run all                 # everything (the EXPERIMENTS.md run)
//	experiments -run exp1|exp2|exp3|exp3wall
//	experiments -run tableI|tableII|fig1|...|fig8
//	experiments -run scenarioA|scenarioB|scenarioC|scenarioD|keystrokes
//	experiments -run encrypted|ids|idsvalidation|countermeasures|baselines|ablations
//	experiments -run list                # list all experiment names
//	experiments -run exp1 -trials 25 -seed 1000
//	experiments -run exp1 -parallel 8    # fan trials over 8 workers (same output)
//	experiments -run exp1 -jsonl exp1.jsonl  # stream per-trial results
//	experiments -run exp1 -ndjson exp1.ndjson  # deterministic result stream (diffable against injectabled)
//	experiments -run exp1 -metrics exp1-metrics.jsonl  # aggregated per-point metrics
//	experiments -run exp1 -v             # campaign summary (workers, utilization)
//	experiments -run exp1 -pprof localhost:6060  # live pprof during the run
//	experiments -spec world.json         # run a declarative scenario (internal/scenario)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"injectable/internal/experiments"
	"injectable/internal/ids"
	"injectable/internal/obs"
	"injectable/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experimentOrder is the -run all sequence (and the -run list output).
var experimentOrder = []string{
	"tableI", "tableII", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"exp1", "exp2", "exp3", "exp3wall", "counterfactual",
	"scenarioA", "scenarioB", "scenarioC", "scenarioD", "keystrokes",
	"encrypted", "ids", "idsvalidation", "countermeasures", "baselines", "ablations",
}

// run is main minus the process exit, so tests can drive the CLI.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runName := fs.String("run", "all", "which experiment to run (see usage)")
	trials := fs.Int("trials", 25, "trials per configuration (paper: 25)")
	seed := fs.Uint64("seed", 1000, "base seed")
	quiet := fs.Bool("q", false, "suppress progress dots")
	parallel := fs.Int("parallel", 0, "campaign workers: 0 = all cores, 1 = serial (output is identical either way)")
	jsonlPath := fs.String("jsonl", "", "stream per-trial campaign results as JSON lines to this file")
	ndjsonPath := fs.String("ndjson", "", "stream the deterministic per-trial result lines (no wall-clock fields; byte-identical to a served campaign of the same spec) to this file")
	metricsPath := fs.String("metrics", "", "write aggregated per-point metric snapshots as JSON lines to this file")
	verbose := fs.Bool("v", false, "print the campaign run summary (workers, trials, utilization) to stderr")
	warmup := fs.String("warmup", "", `sweep trial strategy: "" (per-trial worlds), "shared" (fork a warm snapshot per point) or "shared-fresh" (fork reference)`)
	specPath := fs.String("spec", "", "run a declarative scenario spec file (JSON) instead of a catalog -run name")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address during the run")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if !experiments.ValidWarmup(*warmup) {
		fmt.Fprintf(stderr, "experiments: unknown -warmup %q (want \"\", %q or %q)\n",
			*warmup, experiments.WarmupShared, experiments.WarmupSharedFresh)
		return 2
	}

	if *pprofAddr != "" {
		srv, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof/\n", srv.Addr())
	}

	opts := experiments.Options{TrialsPerPoint: *trials, SeedBase: *seed, Parallel: *parallel, Warmup: *warmup}
	if *verbose {
		opts.Verbose = stderr
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		opts.Metrics = f
	}
	if !*quiet {
		opts.Progress = func(point string, trial int) {
			fmt.Fprintf(stderr, "\r%-20s trial %d   ", point, trial+1)
		}
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		opts.JSONL = f
	}
	if *ndjsonPath != "" {
		f, err := os.Create(*ndjsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		opts.NDJSON = f
	}
	newline := func() {
		if !*quiet {
			fmt.Fprintln(stderr)
		}
	}
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		sp, err := scenario.DecodeSpec(raw)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 2
		}
		exp, err := scenario.Execute(sp, opts)
		newline()
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		fmt.Fprintln(stdout, exp.Table().Render())
		return 0
	}
	tableErr := func(f func() (*experiments.Table, error)) func() error {
		return func() error {
			t, err := f()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, t.Render())
			return nil
		}
	}
	expErr := func(f func() (*experiments.Experiment, error)) func() error {
		return func() error {
			exp, err := f()
			newline()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, exp.Table().Render())
			return nil
		}
	}
	scenarioRunner := func(name, title string) func() error {
		return func() error {
			var outcomes []experiments.ScenarioOutcome
			for _, target := range experiments.ScenarioTargets() {
				out, err := experiments.RunScenario(name, target, *seed, false, experiments.Instrumentation{})
				if err != nil {
					return err
				}
				outcomes = append(outcomes, out)
			}
			fmt.Fprintln(stdout, experiments.ScenarioTable(title, outcomes).Render())
			return nil
		}
	}
	// withSeedOffset shifts the campaign seed base, preserving the
	// historical per-study seed layout.
	withSeedOffset := func(off uint64) experiments.Options {
		o := opts
		o.SeedBase = *seed + off
		return o
	}

	runners := map[string]func() error{
		"tableI":  func() error { fmt.Fprintln(stdout, experiments.TableIFrameFormat().Render()); return nil },
		"tableII": func() error { fmt.Fprintln(stdout, experiments.TableIIConnectReq().Render()); return nil },
		"fig1":    tableErr(func() (*experiments.Table, error) { return experiments.Fig1ConnectionEvents(*seed) }),
		"fig2":    tableErr(func() (*experiments.Table, error) { return experiments.Fig2ConnectionUpdate(*seed) }),
		"fig3":    tableErr(func() (*experiments.Table, error) { return experiments.Fig3AttackOverview(*seed) }),
		"fig4":    func() error { fmt.Fprintln(stdout, experiments.Fig4WindowWidening().Render()); return nil },
		"fig5":    tableErr(func() (*experiments.Table, error) { return experiments.Fig5InjectionOutcomes(*seed) }),
		"fig6":    tableErr(func() (*experiments.Table, error) { return experiments.Fig6SlaveHijack(*seed) }),
		"fig7":    tableErr(func() (*experiments.Table, error) { return experiments.Fig7MitM(*seed) }),
		"fig8":    func() error { fmt.Fprintln(stdout, experiments.Fig8Topology().Render()); return nil },
		"exp1": expErr(func() (*experiments.Experiment, error) {
			return experiments.Experiment1HopInterval(opts)
		}),
		"exp2": expErr(func() (*experiments.Experiment, error) {
			return experiments.Experiment2PayloadSize(opts)
		}),
		"exp3": expErr(func() (*experiments.Experiment, error) {
			return experiments.Experiment3Distance(opts)
		}),
		"exp3wall": expErr(func() (*experiments.Experiment, error) {
			return experiments.Experiment3Wall(opts)
		}),
		"counterfactual": func() error {
			pts, err := experiments.ExperimentCounterfactual(opts)
			newline()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.CounterfactualTable(pts).Render())
			return nil
		},
		"scenarioA": scenarioRunner("scenarioA", "scenario A — illegitimate feature use (§VI-A)"),
		"scenarioB": scenarioRunner("scenarioB", "scenario B — slave hijack (§VI-B)"),
		"scenarioC": scenarioRunner("scenarioC", "scenario C — master hijack (§VI-C)"),
		"scenarioD": scenarioRunner("scenarioD", "scenario D — man-in-the-middle (§VI-D)"),
		"keystrokes": func() error {
			out, err := experiments.RunScenario("keystrokes", "", *seed, false, experiments.Instrumentation{})
			if err != nil {
				return err
			}
			t := &experiments.Table{
				Title:  "§IX extension — HID keystroke injection after slave hijack",
				Header: []string{"target", "success", "hijack attempts", "detail"},
				Rows: [][]string{{
					out.Target, fmt.Sprintf("%t", out.Success),
					fmt.Sprintf("%d", out.Attempts), out.Detail,
				}},
			}
			fmt.Fprintln(stdout, t.Render())
			return nil
		},
		"encrypted": func() error {
			out, err := experiments.RunEncryptedInjection(*seed, experiments.Instrumentation{})
			if err != nil {
				return err
			}
			t := &experiments.Table{
				Title:  "encryption countermeasure (§IV): injection on an encrypted link",
				Header: []string{"paired+encrypted", "feature triggered", "DoS (MIC-failure drop)"},
				Rows: [][]string{{
					fmt.Sprintf("%t", out.Paired),
					fmt.Sprintf("%t (must be false)", out.FeatureTriggered),
					fmt.Sprintf("%t", out.ConnectionDropped),
				}},
			}
			fmt.Fprintln(stdout, t.Render())
			return nil
		},
		"ids": func() error { return runIDS(stdout, *seed) },
		"countermeasures": func() error {
			outs, err := experiments.WideningReduction(withSeedOffset(8000))
			newline()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.WideningReductionTable(outs, *trials).Render())
			app, err := experiments.RunAppLayerCrypto(*seed + 8100)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.AppLayerCryptoTable(app).Render())
			return nil
		},
		"idsvalidation": func() error {
			t, err := experiments.IDSValidation(withSeedOffset(3000))
			newline()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, t.Render())
			return nil
		},
		"baselines": func() error {
			jam, err := experiments.RunBTLEJackBaseline(*seed)
			if err != nil {
				return err
			}
			inj, err := experiments.RunInjectaBLEMasterHijackComparison(*seed)
			if err != nil {
				return err
			}
			pre, err := experiments.RunGATTackerBaseline(*seed, false)
			if err != nil {
				return err
			}
			post, err := experiments.RunGATTackerBaseline(*seed, true)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.BaselineTable([]experiments.BaselineOutcome{jam, inj, pre, post}).Render())
			return nil
		},
		"ablations": func() error {
			for _, f := range []func(experiments.Options) (*experiments.Experiment, error){
				experiments.AblationCaptureModel,
				experiments.AblationAssumedSlaveSCA,
				experiments.AblationInjectionTiming,
				experiments.AblationAdaptiveGuard,
			} {
				exp, err := f(opts)
				if err != nil {
					return err
				}
				newline()
				fmt.Fprintln(stdout, exp.Table().Render())
			}
			t, err := experiments.HeuristicValidation(opts)
			if err != nil {
				return err
			}
			newline()
			fmt.Fprintln(stdout, t.Render())
			return nil
		},
	}

	if *runName == "list" {
		for _, name := range experimentOrder {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *runName == "all" {
		for _, name := range experimentOrder {
			if err := runners[name](); err != nil {
				fmt.Fprintf(stderr, "experiments: %s: %v\n", name, err)
				return 1
			}
		}
		return 0
	}
	r, ok := runners[*runName]
	if !ok {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q\navailable: %s\n",
			*runName, strings.Join(append([]string{"all", "list"}, experimentOrder...), " "))
		return 2
	}
	if err := r(); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

// runIDS measures detection across the scenarios plus a clean control.
func runIDS(stdout io.Writer, seed uint64) error {
	t := &experiments.Table{
		Title:  "IDS detection study (§VIII): alerts per attack",
		Header: []string{"workload", "double-frame", "anchor-dev", "sched-split", "rogue-update", "jamming"},
	}
	row := func(name string, alerts map[ids.AlertKind]int) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", alerts[ids.AlertDoubleFrame]),
			fmt.Sprintf("%d", alerts[ids.AlertAnchorDeviation]),
			fmt.Sprintf("%d", alerts[ids.AlertScheduleSplit]),
			fmt.Sprintf("%d", alerts[ids.AlertRogueUpdate]),
			fmt.Sprintf("%d", alerts[ids.AlertJamming]),
		})
	}
	for _, sc := range []string{"A", "B", "C", "D"} {
		out, err := experiments.RunScenario("scenario"+sc, "lightbulb", seed, true, experiments.Instrumentation{})
		if err != nil {
			return err
		}
		row("scenario "+sc, out.IDSAlerts)
	}
	fmt.Fprintln(stdout, t.Render())
	return nil
}
