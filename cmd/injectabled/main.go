// Command injectabled is the campaign-as-a-service daemon: it serves the
// simulation study catalog (Fig. 9 sweeps, design ablations, attack
// scenarios) as HTTP jobs with admission control, deduplication and
// deterministic streaming results.
//
// Usage:
//
//	injectabled serve       [-addr host:port] [-queue-cap n] [-job-workers n] ...
//	injectabled worker      (alias for serve: one node of a campaign fabric)
//	injectabled submit      [-addr url] -experiment name | -spec file.json [-trials n] [-format f] ...
//	injectabled coordinator -workers url,url,... -experiment name | -spec file.json [-shards n] [-journal file] [-format f] ...
//	injectabled transcode   [-i file] [-o file] [-to ndjson|binary]
//
// serve runs until SIGINT/SIGTERM, then drains: accepted jobs finish,
// new submissions are rejected with 503. A second signal cancels the
// remaining jobs and exits immediately.
//
// coordinator shards one sweep across a fleet of worker daemons and
// merges their streams into a single NDJSON campaign byte-identical to a
// single-process run. With -journal, completed shards are checkpointed so
// a rerun after a crash resumes without recomputing them.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/fabric"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run dispatches a subcommand. ready, when non-nil, receives the serve
// listener's address once it is accepting connections (used by tests;
// nil in production).
func run(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	switch argv[0] {
	case "serve", "worker":
		return runServe(argv[1:], stdout, stderr, ready)
	case "submit":
		return runSubmit(argv[1:], stdout, stderr)
	case "coordinator":
		return runCoordinator(argv[1:], stdout, stderr, ready)
	case "transcode":
		return runTranscode(argv[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "injectabled: unknown subcommand %q\n", argv[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  injectabled serve       [-addr host:port] [-queue-cap n] [-job-workers n] [-trial-workers n] [-cache-entries n] [-drain-timeout d] [-log-level l] [-pprof addr]
  injectabled worker      (alias for serve)
  injectabled submit      [-addr url] -experiment name | -spec file.json [-target t] [-trials n] [-seed-base n] [-priority n] [-timeout-ms n] [-format ndjson|binary] [-o file]
  injectabled coordinator -workers url,url,... -experiment name | -spec file.json [-shards n] [-journal file] [-max-attempts n] [-format ndjson|binary] [-o file]
                          [-status addr] [-linger d] [-trace file] [-scrape-interval d] [-log-level l] [-pprof addr]
  injectabled transcode   [-i file] [-o file] [-to ndjson|binary]   (losslessly convert a result stream; direction auto-detected)
`)
}

// signalCh is replaced by tests to inject shutdown signals.
var signalCh = func() <-chan os.Signal {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	return ch
}

// obsFlags registers the shared observability flags (-log-level, -pprof)
// and returns a setup function that builds the logger and starts the
// optional pprof debug server. The returned cleanup is safe to call
// unconditionally.
func obsFlags(fs *flag.FlagSet) func(stderr io.Writer) (*slog.Logger, func(), error) {
	logLevel := fs.String("log-level", "", "structured log level: debug|info|warn|error (default: no structured logs)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and /debug/runtime on this address")
	return func(stderr io.Writer) (*slog.Logger, func(), error) {
		lg := obs.NopLogger()
		if *logLevel != "" {
			level, err := obs.ParseLogLevel(*logLevel)
			if err != nil {
				return nil, func() {}, err
			}
			lg = obs.NewLogger(stderr, level)
		}
		cleanup := func() {}
		if *pprofAddr != "" {
			dbg, err := obs.StartDebugServer(*pprofAddr)
			if err != nil {
				return nil, cleanup, err
			}
			fmt.Fprintf(stderr, "injectabled: pprof on http://%s/debug/pprof/\n", dbg.Addr())
			cleanup = func() { dbg.Close() }
		}
		return lg, cleanup, nil
	}
}

func runServe(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("injectabled serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	queueCap := fs.Int("queue-cap", 64, "admission queue capacity (full queue answers 429)")
	jobWorkers := fs.Int("job-workers", 2, "concurrently executing jobs")
	trialWorkers := fs.Int("trial-workers", 0, "campaign workers per job (0 = all cores)")
	cacheEntries := fs.Int("cache-entries", 256, "completed-result LRU size")
	retryAfter := fs.Duration("retry-after", 2*time.Second, "Retry-After hint on 429/503")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "default per-job deadline")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Minute, "max wait for accepted jobs on shutdown")
	obsSetup := obsFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	lg, obsCleanup, err := obsSetup(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 2
	}
	defer obsCleanup()

	hub := obs.NewHub()
	srv := serve.NewServer(serve.Config{
		Hub:            hub,
		QueueCap:       *queueCap,
		JobWorkers:     *jobWorkers,
		TrialWorkers:   *trialWorkers,
		CacheEntries:   *cacheEntries,
		RetryAfter:     *retryAfter,
		DefaultTimeout: *jobTimeout,
		Log:            lg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "injectabled: serving on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := signalCh()
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "injectabled:", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "injectabled: %v — draining (finishing accepted jobs, rejecting new)\n", s)
	}

	// Drain: finish accepted jobs while /readyz reports 503. A second
	// signal — or the drain timeout — cancels what is left.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		fmt.Fprintln(stderr, "injectabled: second signal — canceling remaining jobs")
		cancel()
	}()
	code := 0
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(stderr, "injectabled: drain aborted:", err)
		srv.Close()
		code = 1
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutdownCtx)
	fmt.Fprintln(stderr, "injectabled: bye")
	return code
}

// specFlags registers the job-spec flags shared by submit and
// coordinator. -spec embeds a declarative scenario file
// (internal/scenario) in place of a catalog experiment name; the file is
// validated and canonicalized client-side, so the job's dedup key is the
// one every daemon would compute.
func specFlags(fs *flag.FlagSet) func() (serve.JobSpec, error) {
	experiment := fs.String("experiment", "", "experiment or scenario name (see GET /v1/experiments)")
	target := fs.String("target", "", "scenario target device")
	specFile := fs.String("spec", "", "declarative scenario spec file (JSON); replaces -experiment/-target")
	trials := fs.Int("trials", 0, "trials per point (0 = the paper's 25)")
	seedBase := fs.Uint64("seed-base", 0, "base seed (0 = 1000)")
	priority := fs.Int("priority", 0, "admission priority 0-9 (higher runs first)")
	timeoutMS := fs.Int64("timeout-ms", 0, "job deadline in ms (0 = server default)")
	warmup := fs.String("warmup", "", `sweep trial strategy: "" (per-trial worlds), "shared" (fork a warm snapshot) or "shared-fresh" (fork reference)`)
	return func() (serve.JobSpec, error) {
		spec := serve.JobSpec{
			Experiment: *experiment,
			Target:     *target,
			Trials:     *trials,
			SeedBase:   *seedBase,
			Priority:   *priority,
			TimeoutMS:  *timeoutMS,
			Warmup:     *warmup,
		}
		if *specFile == "" {
			return spec, nil
		}
		if *experiment != "" || *target != "" {
			return serve.JobSpec{}, errors.New("-spec replaces -experiment/-target; drop them")
		}
		raw, err := os.ReadFile(*specFile)
		if err != nil {
			return serve.JobSpec{}, err
		}
		return serve.ScenarioJobSpec(raw, spec)
	}
}

func runSubmit(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("injectabled submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8077", "daemon base URL")
	out := fs.String("o", "", "write the result stream to this file (default stdout)")
	format := fs.String("format", serve.FormatNDJSON, "result stream format: ndjson|binary")
	spec := specFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	job, err := spec()
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 2
	}
	client := &serve.Client{Base: *addr}
	var res *serve.RunResult
	switch *format {
	case serve.FormatNDJSON:
		res, err = client.Run(context.Background(), job)
	case serve.FormatBinary:
		res, err = client.RunBinary(context.Background(), job)
	default:
		fmt.Fprintf(stderr, "injectabled: unknown -format %q (want ndjson or binary)\n", *format)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		var apiErr *serve.APIError
		if errors.As(err, &apiErr) && (apiErr.Status == 429 || apiErr.Status == 503) {
			return 3 // distinguishable "try again later"
		}
		return 1
	}
	fmt.Fprintf(stderr, "injectabled: job %s cache: %s\n", res.JobID, res.Cache)
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "injectabled:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(res.Body); err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 1
	}
	return 0
}

// runCoordinator shards one campaign across a worker fleet and merges
// the results. The summary line on stderr is stable, machine-assertable
// output: the CI smoke job greps it to prove a resumed campaign
// dispatched zero shards.
//
// With -status, a fleet observability surface (merged /metrics,
// /v1/fleet, /v1/spans, /v1/trace) serves throughout the run and for
// -linger afterwards so scrapers can collect the final state; ready
// (tests) receives the status listener's address, or "" when -status is
// off. With -trace, the merged cross-process Chrome trace is written
// after the run.
func runCoordinator(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("injectabled coordinator", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workersFlag := fs.String("workers", "", "comma-separated worker daemon base URLs (required)")
	shards := fs.Int("shards", 0, "max shards (0 = one per sweep point)")
	journalPath := fs.String("journal", "", "shard checkpoint file; reruns resume completed shards from it")
	out := fs.String("o", "", "write the merged stream to this file (default stdout)")
	format := fs.String("format", serve.FormatNDJSON, "merged output format: ndjson|binary (shards travel binary either way)")
	maxAttempts := fs.Int("max-attempts", 3, "dispatch attempts per shard before the campaign fails")
	workerFailures := fs.Int("worker-failures", 3, "consecutive failures before a worker is abandoned")
	statusAddr := fs.String("status", "", "serve the fleet status surface (/metrics, /v1/fleet, /v1/trace) on this address")
	scrapeEvery := fs.Duration("scrape-interval", 2*time.Second, "worker metrics scrape period for the status surface")
	linger := fs.Duration("linger", 0, "keep the status surface up this long after the run (0 = exit immediately)")
	tracePath := fs.String("trace", "", "write the merged cross-process Chrome trace to this file after the run")
	obsSetup := obsFlags(fs)
	spec := specFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	var workers []string
	for _, w := range strings.Split(*workersFlag, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		fmt.Fprintln(stderr, "injectabled: coordinator needs -workers url[,url...]")
		return 2
	}
	lg, obsCleanup, err := obsSetup(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 2
	}
	defer obsCleanup()

	job, err := spec()
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 2
	}
	plan, err := fabric.PlanShards(serve.DefaultRegistry(), job, *shards)
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 2
	}

	hub := obs.NewHub()
	st := fabric.NewStatus()
	cfg := fabric.Config{
		Workers:        workers,
		Retry:          serve.Retry{Max: 4, Base: 250 * time.Millisecond, Cap: 5 * time.Second},
		MaxAttempts:    *maxAttempts,
		WorkerFailures: *workerFailures,
		Hub:            hub,
		Log:            lg,
		Status:         st,
		Format:         *format,
	}
	if *journalPath != "" {
		j, recs, err := fabric.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(stderr, "injectabled:", err)
			return 1
		}
		defer j.Close()
		cfg.Journal = j
		cfg.Resume = recs
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "injectabled:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := signalCh()
	// A signal during the campaign aborts it. The watcher is stopped and
	// joined once the campaign returns, so it never writes stderr beside
	// the lines that follow, and a signal while lingering ends the linger.
	stopAbort, abortDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(abortDone)
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "injectabled: %v — aborting campaign (journal retains finished shards)\n", s)
			cancel()
		case <-stopAbort:
		case <-ctx.Done():
		}
	}()

	// The aggregator exists whenever either observability output was
	// requested; the HTTP surface only with -status.
	var agg *fabric.Aggregator
	if *statusAddr != "" || *tracePath != "" {
		agg = fabric.NewAggregator(fabric.AggregatorConfig{
			Workers:  workers,
			Interval: *scrapeEvery,
			Local:    hub,
			Status:   st,
			Log:      lg,
		})
	}
	var statusSrv *http.Server
	if *statusAddr != "" {
		ln, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			fmt.Fprintln(stderr, "injectabled:", err)
			return 1
		}
		statusSrv = &http.Server{Handler: agg.Handler()}
		go statusSrv.Serve(ln)
		defer statusSrv.Close()
		fmt.Fprintf(stderr, "injectabled: fleet status on http://%s\n", ln.Addr())
		go agg.Run(ctx)
		if ready != nil {
			ready <- ln.Addr().String()
		}
	} else if ready != nil {
		ready <- ""
	}

	rep, err := fabric.Run(ctx, cfg, plan, w)
	close(stopAbort)
	<-abortDone
	if rep != nil {
		fmt.Fprintf(stderr, "fabric: shards=%d resumed=%d dispatched=%d retried=%d workers_lost=%d trials=%d ok=%d failed=%d bytes=%d\n",
			rep.Shards, rep.Resumed, rep.Dispatched, rep.Retried, rep.WorkersLost, rep.Trials, rep.OK, rep.Failed, rep.Bytes)
	}
	code := 0
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		code = 1
	}

	if agg != nil {
		// Final scrape so the surface (and the trace) reflects the
		// workers' post-campaign counters even between ticks.
		scrapeCtx, scrapeCancel := context.WithTimeout(context.Background(), 10*time.Second)
		agg.ScrapeOnce(scrapeCtx)
		if *tracePath != "" {
			if terr := writeFleetTrace(scrapeCtx, agg, *tracePath, plan.Key); terr != nil {
				fmt.Fprintln(stderr, "injectabled:", terr)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Fprintf(stderr, "injectabled: fleet trace written to %s\n", *tracePath)
			}
		}
		scrapeCancel()
	}

	if statusSrv != nil && *linger > 0 && code == 0 {
		fmt.Fprintf(stderr, "injectabled: lingering %v for scrapers (signal to exit)\n", *linger)
		select {
		case <-time.After(*linger):
		case <-sig:
		case <-ctx.Done():
		}
	}
	return code
}

// writeFleetTrace assembles and writes the merged Chrome trace file.
func writeFleetTrace(ctx context.Context, agg *fabric.Aggregator, path, trace string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := agg.FleetTrace(ctx, f, trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTranscode losslessly converts a complete result stream between the
// NDJSON and binary trial-record formats. The source format is detected
// from the stream itself (binary opens with the "IBTR" magic); -to
// defaults to "the other one", so a bare `transcode` always flips the
// format. The CI equivalence job round-trips daemon output through this
// and requires cmp-level identity with the directly served stream.
func runTranscode(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("injectabled transcode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input stream file (default stdin)")
	out := fs.String("o", "", "output file (default stdout)")
	to := fs.String("to", "", "target format: ndjson|binary (default: the opposite of the input)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	var data []byte
	var err error
	if *in != "" {
		data, err = os.ReadFile(*in)
	} else {
		data, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 1
	}
	isBinary := bytes.HasPrefix(data, []byte("IBTR"))
	target := *to
	if target == "" {
		target = serve.FormatBinary
		if isBinary {
			target = serve.FormatNDJSON
		}
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "injectabled:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	switch {
	case target == serve.FormatNDJSON && isBinary:
		err = campaign.TranscodeBinaryToNDJSON(w, data)
	case target == serve.FormatBinary && !isBinary:
		err = campaign.TranscodeNDJSONToBinary(w, data)
	case target == serve.FormatNDJSON || target == serve.FormatBinary:
		_, err = w.Write(data) // already in the target format
	default:
		fmt.Fprintf(stderr, "injectabled: unknown -to %q (want ndjson or binary)\n", target)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "injectabled:", err)
		return 1
	}
	return 0
}
