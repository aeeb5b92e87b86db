// Command injectable runs the InjectaBLE attack scenarios against a
// simulated topology and reports what happened.
//
// Usage:
//
//	injectable -scenario A|B|C|D -target lightbulb|keyfob|smartwatch [-seed N] [-ids]
//	injectable -scenario keyboard [-seed N] [-ids]
//	injectable -scenario encrypted [-seed N]
//	           [-trace] [-pcap out.pcap] [-metrics out.jsonl] [-chrome-trace out.trace.json]
//	           [-forensics] [-pprof localhost:6060]
//
// Observability flags:
//
//	-trace         stream the full Link Layer trace to stderr
//	-pcap          capture the attacker-sniffed LL traffic as a pcap file
//	-metrics       write layer metrics + the injection forensics ledger as JSON lines
//	-chrome-trace  write a Chrome trace_event file (open in Perfetto or about:tracing)
//	-forensics     print the per-attempt injection forensics summary
//	-pprof         serve net/http/pprof on the given address for the run
//
// All outputs are deterministic per seed (the chrome trace and metrics
// files are byte-identical across runs with equal flags).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"injectable/internal/experiments"
	"injectable/internal/ids"
	"injectable/internal/obs"
	"injectable/internal/pcap"
	"injectable/internal/sim"
)

// chromeTraceLimit bounds the in-memory event ring feeding -chrome-trace;
// drop-oldest keeps the tail of the run, which is where injection
// attempts live.
const chromeTraceLimit = 250000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("injectable", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "A", "attack scenario: A, B, C, D, keyboard or encrypted")
	target := fs.String("target", "lightbulb", "target device: lightbulb, keyfob or smartwatch")
	seed := fs.Uint64("seed", 1, "simulation seed (runs are deterministic per seed)")
	withIDS := fs.Bool("ids", false, "attach the passive IDS and report its alerts")
	trace := fs.Bool("trace", false, "stream the full Link Layer trace to stderr")
	pcapPath := fs.String("pcap", "", "write attacker-sniffed LL traffic to a pcap file")
	metricsPath := fs.String("metrics", "", "write metrics + injection forensics as JSON lines")
	chromePath := fs.String("chrome-trace", "", "write a Chrome trace_event file (Perfetto / about:tracing)")
	forensics := fs.Bool("forensics", false, "print the injection forensics summary")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address during the run")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	// A flag the chosen scenario would ignore is an error, not a silent
	// no-op: the keystrokes world is always a keyfob, and the encrypted
	// run has no target choice and no IDS.
	ignored := map[string][]string{"keyboard": {"target"}, "encrypted": {"target", "ids"}}[*scenario]
	var unused []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(ignored, f.Name) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if len(unused) > 0 {
		fmt.Fprintf(stderr, "injectable: scenario %s ignores %s\n", *scenario, strings.Join(unused, " and "))
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "injectable:", err)
		return 1
	}

	if *pprofAddr != "" {
		srv, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof/\n", srv.Addr())
	}

	// Assemble the instrumentation the scenario worlds will carry.
	var inst experiments.Instrumentation
	var tracers sim.MultiTracer
	if *trace {
		tracers = append(tracers, sim.WriterTracer{W: stderr})
	}
	var rec *sim.RecordingTracer
	if *chromePath != "" {
		rec = sim.NewBoundedRecordingTracer(chromeTraceLimit)
		tracers = append(tracers, rec)
	}
	if len(tracers) > 0 {
		inst.Tracer = tracers
	}
	if *metricsPath != "" || *chromePath != "" || *forensics {
		inst.Obs = obs.NewHub()
	}
	var pcapFile *os.File
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return fail(err)
		}
		pcapFile = f
		pw, err := pcap.NewWriter(f)
		if err != nil {
			return fail(err)
		}
		inst.Pcap = pw
	}

	code, err := runScenario(*scenario, *target, *seed, *withIDS, inst, stdout)
	if err != nil {
		return fail(err)
	}

	// Flush the observability outputs before surfacing the exit code.
	if pcapFile != nil {
		fmt.Fprintf(stdout, "pcap: %d packets (%d bytes) written to %s\n",
			inst.Pcap.Packets(), inst.Pcap.BytesWritten(), *pcapPath)
		if err := pcapFile.Close(); err != nil {
			return fail(err)
		}
	}
	if *metricsPath != "" {
		if err := writeFileWith(*metricsPath, func(f *os.File) error {
			return obs.WriteMetricsJSONL(f, inst.Obs.Snapshot(), inst.Obs.Led())
		}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "metrics: %d ledger records written to %s\n",
			len(inst.Obs.Led().Records()), *metricsPath)
	}
	if *chromePath != "" {
		if err := writeFileWith(*chromePath, func(f *os.File) error {
			return obs.WriteChromeTrace(f, rec.Snapshot(), rec.Dropped(), inst.Obs.Led())
		}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "chrome-trace: %d events (%d dropped) written to %s\n",
			len(rec.Events), rec.Dropped(), *chromePath)
	}
	if *forensics {
		if err := inst.Obs.Led().WriteSummary(stdout); err != nil {
			return fail(err)
		}
	}
	return code
}

// runScenario dispatches and reports one scenario, returning the exit code.
func runScenario(scenario, target string, seed uint64, withIDS bool, inst experiments.Instrumentation, stdout io.Writer) (int, error) {
	switch scenario {
	case "A", "B", "C", "D":
		out, err := experiments.RunScenario("scenario"+scenario, target, seed, withIDS, inst)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "scenario %s vs %s: success=%t attempts=%d (%s)\n",
			scenario, out.Target, out.Success, out.Attempts, out.Detail)
		if withIDS {
			printIDS(stdout, out.IDSAlerts)
		}
		if !out.Success {
			return 1, nil
		}
	case "keyboard":
		out, err := experiments.RunScenario("keystrokes", "", seed, withIDS, inst)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "scenario keyboard: success=%t hijackAttempts=%d (%s)\n",
			out.Success, out.Attempts, out.Detail)
		if withIDS {
			printIDS(stdout, out.IDSAlerts)
		}
		if !out.Success {
			return 1, nil
		}
	case "encrypted":
		out, err := experiments.RunEncryptedInjection(seed, inst)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "encrypted countermeasure: paired=%t featureTriggered=%t dosDrop=%t\n",
			out.Paired, out.FeatureTriggered, out.ConnectionDropped)
	default:
		return 0, fmt.Errorf("unknown scenario %q", scenario)
	}
	return 0, nil
}

// printIDS reports the IDS alert counts, one line per kind. Map order
// varies run to run; printing by kind keeps stdout deterministic per seed.
func printIDS(stdout io.Writer, alerts map[ids.AlertKind]int) {
	if len(alerts) == 0 {
		fmt.Fprintln(stdout, "IDS: no alerts")
	}
	kinds := make([]ids.AlertKind, 0, len(alerts))
	for kind := range alerts {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(stdout, "IDS: %d × %s\n", alerts[kind], kind)
	}
}

// writeFileWith creates path, runs write against it and closes it,
// reporting the first error.
func writeFileWith(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
