// Command perfbench is the repository's benchmark. One command runs one
// workload through the public entry points of experiments, campaign,
// scenario, serve and fabric, checks every output, and prints every
// end-to-end metric by name with its unit; a traced run (--trace 1) of
// the same workload and seed breaks it down by layer, timing each layer
// from outside at the calls the benchmark makes into it.
//
//	bash perfbench/run.sh --workload fig9-catalog|fleet-fork|daemon-mix --seed N --seconds S --trace 0|1
//
// It runs from the repository root (the daemon-mix workload reads the
// committed examples/scenarios specs) and writes its Chrome trace and CPU
// profile under .bench_build/trace. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
// lines before it print every metric with its unit, the workload's
// error_rate and its load shape. Any failed output check makes the
// command exit non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setups is how many times each run sets its workload up; setup_s is the
// median, so one slow first set-up (cold page cache, first-use code
// paths) does not move it.
const setups = 5

// outDir holds the traced run's artifacts, inside the checkout.
const outDir = ".bench_build/trace"

// workload is one benchmark workload.
type workload struct {
	name string
	// shape is the load the workload generates; the guard refuses it when
	// any count exceeds the machine's CPUs.
	shape loadShape
	// headline is the end-to-end metric trace_overhead compares.
	headline string
	// aliases map this workload's own names for its latency modes
	// (hit_p50_ms, …) onto the end-to-end names, for the printed table.
	aliases [][2]string
	// setup builds one ready instance: everything before the first timed
	// operation, including one untimed operation.
	setup func(seed uint64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run drives the closed loop until the deadline and reports what it
	// measured; tr is nil in the untraced run.
	run(until time.Time, tr *tracer) *tally
	// layers fills the workload's per-layer metrics after the traced
	// loop, from the trace and from timed calls on the workload's own
	// inputs (specs, streams, plans).
	layers(tr *tracer, m map[string]float64) error
	// close stops every daemon and waits for it.
	close()
}

// tally is what one timed loop measured.
type tally struct {
	elapsed   time.Duration // from the loop's start to the end of its last operation
	trials    int           // trials simulated
	jobs      int           // closed-loop jobs completed
	short     []float64     // short-operation latencies, ms
	long      []float64     // long-operation latencies, ms
	attempted int
	failed    int
	failures  []string
}

// done records a completed job that simulated trials.
func (t *tally) done(trials int) {
	t.trials += trials
	t.jobs++
}

// perSecond is n completed over the loop's wall-clock seconds: every
// operation counts, the slowest and the last included.
func (t *tally) perSecond(n int) float64 {
	if t.elapsed <= 0 {
		return 0
	}
	return float64(n) / t.elapsed.Seconds()
}

// enough reports whether t holds the samples its tail percentiles need
// (short p99, long p90; see percentile). The untraced loops run past
// their deadline until it does, so a slow host lengthens a run instead of
// failing it.
func (t *tally) enough() bool {
	return len(t.short)*(100-99) >= minBeyond*100 && len(t.long)*(100-90) >= minBeyond*100
}

// fail records one failed operation (first few messages kept).
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds o's counts and samples to t (elapsed is the caller's).
func (t *tally) merge(o *tally) {
	t.trials += o.trials
	t.jobs += o.jobs
	t.short = append(t.short, o.short...)
	t.long = append(t.long, o.long...)
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

// loadShape is the concurrency a workload puts on the machine.
type loadShape struct {
	generators  int // load-generating goroutines
	connections int // client connections
	daemons     [][2]int
	runners     int // in-process campaign runner workers
}

// trialWorkers sums the trial goroutines that can run at once.
func (s loadShape) trialWorkers() int {
	n := s.runners
	for _, d := range s.daemons {
		n += d[0] * d[1]
	}
	return n
}

// check refuses a load the machine cannot carry without queueing the
// load generator itself behind the work it measures.
func (s loadShape) check(nproc int) error {
	if s.generators > nproc || s.connections > nproc || s.trialWorkers() > nproc {
		return fmt.Errorf("load shape %s exceeds nproc=%d", s, nproc)
	}
	return nil
}

func (s loadShape) String() string {
	ds := make([]string, len(s.daemons))
	for i, d := range s.daemons {
		ds[i] = fmt.Sprintf("%dx%d", d[0], d[1])
	}
	return fmt.Sprintf("generators=%d connections=%d trial_workers=%d daemons(JobWorkers x TrialWorkers)=[%s]",
		s.generators, s.connections, s.trialWorkers(), strings.Join(ds, " "))
}

var workloads = []workload{catalogWorkload, fleetWorkload, mixWorkload}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig9-catalog, fleet-fork or daemon-mix")
	seed := fs.Int64("seed", 0, "workload seed (every input derives from it)")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, Chrome trace, CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seed >= 0, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "load nproc=%d GOMAXPROCS=%d %s\n", nproc, runtime.GOMAXPROCS(0), w.shape)
	if err := w.shape.check(nproc); err != nil {
		fmt.Fprintln(stderr, "perfbench: refusing to run:", err)
		return 1
	}

	res, err := measure(w, uint64(*seed), time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure sets the workload up several times, keeps the last instance
// and runs its closed loop: for the whole duration untraced, or — in a
// traced run — half untraced (the trace_overhead baseline) and half
// traced under a CPU profile.
func measure(w *workload, seed uint64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	var inst instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	if !traced {
		t := inst.run(time.Now().Add(d), nil)
		e2e, err := endToEndValues(t, median(setupS))
		if err != nil {
			return nil, err
		}
		printTable(out, endToEnd, e2e)
		for _, a := range w.aliases {
			fmt.Fprintf(out, "  %s = %s = %.4f\n", a[0], a[1], e2e[a[1]])
		}
		printFailures(out, t)
		return newResult(t, endToEnd, e2e), nil
	}

	base := inst.run(time.Now().Add(d/2), nil)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t := inst.run(time.Now().Add(d/2), tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)

	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, nsamples := cpuShares(samples)
	for l, s := range shares {
		m["cpu."+l] = s
	}
	if t.trials > 0 {
		m["alloc_kb_per_trial"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(t.trials)
		m["allocs_per_trial"] = float64(after.Mallocs-before.Mallocs) / float64(t.trials)
	}
	if hb := headline(w.headline, base); hb > 0 {
		m["trace_overhead"] = headline(w.headline, t) / hb
	}
	if err := inst.layers(tr, m); err != nil {
		return nil, err
	}
	m["trace.spans_lost"] = float64(tr.lost)
	t.merge(base)

	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var chrome bytes.Buffer
	if err := tr.writeChrome(&chrome); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".trace.json", chrome.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace %s.trace.json, profile %s.pprof (%d samples)\n", stem, stem, nsamples)
	printLayers(out, m)
	fmt.Fprintln(out, "self time by span (ms): name count total self")
	for _, r := range selfTable(tr.named("")) {
		fmt.Fprintf(out, "  %-28s %6d %10.1f %10.1f\n", r.name, r.count, float64(r.totalUS)/1000, float64(r.selfUS)/1000)
	}
	fmt.Fprintln(out, "hottest module functions (innermost module frame):")
	for _, l := range topFrames(samples, 12) {
		fmt.Fprintln(out, "  "+l)
	}
	printFailures(out, t)
	return newResult(t, perLayer, m), nil
}

// headline returns a throughput metric of one tally.
func headline(name string, t *tally) float64 {
	if name == "jobs_per_s" {
		return t.perSecond(t.jobs)
	}
	return t.perSecond(t.trials)
}

// endToEndValues computes the end-to-end metrics of an untraced loop. A
// percentile without ten samples beyond it is an error: the workload is
// too small for the figure it claims.
func endToEndValues(t *tally, setupS float64) (map[string]float64, error) {
	m := map[string]float64{
		"setup_s":      setupS,
		"trials_per_s": t.perSecond(t.trials),
		"jobs_per_s":   t.perSecond(t.jobs),
		"max_rss_mb":   maxRSSMB(),
	}
	for _, p := range []struct {
		name    string
		samples []float64
		pct     int
	}{
		{"short_p50_ms", t.short, 50}, {"short_p99_ms", t.short, 99},
		{"long_p50_ms", t.long, 50}, {"long_p90_ms", t.long, 90},
	} {
		v, err := percentile(p.samples, p.pct)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = v
	}
	return m, nil
}

func newResult(t *tally, defs []metricDef, m map[string]float64) *result {
	r := &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	return r
}

func printTable(out io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-14s %12.4f %-5s  %s\n", d.name, m[d.name], d.unit, d.moves)
	}
}

func printLayers(out io.Writer, m map[string]float64) {
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-30s %12.4f %-6s moves %s\n", d.name, m[d.name], d.unit, d.moves)
	}
}

func printFailures(out io.Writer, t *tally) {
	rate := 0.0
	if t.attempted > 0 {
		rate = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(out, "error_rate %g ratio (%d failed / %d attempted)\n", rate, t.failed, t.attempted)
	for _, f := range t.failures {
		fmt.Fprintln(out, "  failure:", f)
	}
}

// maxRSSMB is the process's peak resident set in MB (getrusage's
// ru_maxrss, which Linux reports in kilobytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// checked runs one of the benchmark's own output checks under a pprof
// label, so its samples show as cpu.bench instead of being charged to the
// layer whose decoder the check calls.
func checked(f func()) {
	pprof.Do(context.Background(), pprof.Labels(benchLabel, "check"), func(context.Context) { f() })
}

// collect runs fn on n goroutines and waits for all of them.
func collect(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
