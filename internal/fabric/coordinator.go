package fabric

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

// Config shapes a coordinator run. Workers is required; everything else
// has a documented default.
type Config struct {
	// Workers are the worker daemons' base URLs. At least one.
	Workers []string
	// HTTP is the shared transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Retry is the per-request throttle policy each worker client uses
	// for 429/503 (zero value = no client-level retries; shard-level
	// redispatch still applies).
	Retry serve.Retry
	// MaxAttempts bounds how many times one shard is dispatched across
	// the fleet before the campaign fails (default 3).
	MaxAttempts int
	// WorkerFailures is how many consecutive failed shards a worker may
	// produce before the coordinator abandons it (default 3). Abandoning
	// dead workers is what turns "worker crashed mid-shard" into a
	// redispatch to the survivors instead of an infinite retry loop.
	WorkerFailures int
	// Journal, when non-nil, checkpoints every completed shard before it
	// is merged. Resume holds the records replayed from it: shards whose
	// keys match the plan are merged from the checkpoint and never
	// dispatched.
	Journal *Journal
	Resume  []ShardRecord
	// Hub receives fabric metrics and spans (nil disables them).
	Hub *obs.Hub
	// Log receives structured lifecycle events (nil = silent).
	Log *slog.Logger
	// Status, when non-nil, receives live per-shard and per-worker state
	// transitions; the Aggregator serves it as /v1/fleet.
	Status *Status
	// Format selects the merged output stream written to w:
	// serve.FormatNDJSON (the default, byte-identical to a single-process
	// NDJSON run) or serve.FormatBinary (byte-identical to a
	// single-process binary run). Shards travel, journal and merge as
	// binary frames regardless of this setting; NDJSON only renders the
	// merged binary stream through campaign.NDJSONWriter on its way to w.
	Format string
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.WorkerFailures <= 0 {
		c.WorkerFailures = 3
	}
	return c
}

// Report summarizes a coordinator run.
type Report struct {
	// Shards is the plan size; Resumed of those came from the journal.
	Shards  int
	Resumed int
	// Dispatched counts shard dispatch attempts (including redispatches);
	// Retried counts just the redispatches. A fully resumed campaign
	// dispatches zero shards.
	Dispatched int
	Retried    int
	// WorkersLost counts workers abandoned after consecutive failures.
	WorkersLost int
	// Trials, OK and Failed are the merged stream's trailer tallies.
	Trials int
	OK     int
	Failed int
	// Bytes is the merged stream's total size.
	Bytes int64
}

// byteCounter adds every byte written through it to *n.
type byteCounter struct {
	w io.Writer
	n *int64
}

func (c byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// outcome is one shard dispatch attempt's result, or a worker obituary.
type outcome struct {
	shard      int
	payload    []byte
	ok, failed int
	err        error
	worker     string
	elapsed    time.Duration
	workerDead bool
}

// Run executes the plan across the fleet and writes the merged stream
// to w in cfg.Format (NDJSON by default). The merged bytes are identical
// to a single-process run of plan.Spec; on error (including ctx
// cancellation) the journal retains every shard that completed, so a
// rerun resumes instead of recomputing.
//
// Internally every shard travels as binary trial-record frames: workers
// answer /v1/run?format=binary (their cached slab, zero-copy on hits),
// the coordinator validates the frame walk and trailer tallies, journals
// the raw frames, and merges by concatenation under one binary header
// and trailer — records are only decoded at the very edge, and only when
// the merged output is NDJSON.
func Run(ctx context.Context, cfg Config, plan *Plan, w io.Writer) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no workers configured")
	}
	rep := &Report{Shards: len(plan.Shards)}
	var out io.Writer = byteCounter{w, &rep.Bytes}
	switch cfg.Format {
	case "", serve.FormatNDJSON:
		out = campaign.NewNDJSONWriter(out)
	case serve.FormatBinary:
	default:
		return nil, fmt.Errorf("fabric: unknown output format %q", cfg.Format)
	}
	reg := cfg.Hub.Reg()
	lg := obs.LoggerOr(cfg.Log)
	cfg.Status.beginPlan(plan, cfg.Workers)
	lg.Info("campaign starting", "campaign", plan.Key, "shards", len(plan.Shards),
		"workers", len(cfg.Workers), "trials", plan.Trials)

	if _, err := out.Write(campaign.BinaryHeader(plan.Name, plan.SeedBase, plan.Points, plan.Trials)); err != nil {
		return rep, fmt.Errorf("fabric: writing merged header: %w", err)
	}

	// Resume: shards whose canonical keys are already journaled merge
	// from the checkpoint and are never dispatched. Keys — not indexes —
	// decide identity, so a stale journal from a different spec is
	// harmlessly ignored.
	resumed := make(map[string]ShardRecord, len(cfg.Resume))
	for _, rec := range cfg.Resume {
		if _, dup := resumed[rec.Key]; !dup {
			resumed[rec.Key] = rec
		}
	}
	coll := campaign.NewCollator[[]byte](0)
	coll.OnRelease = func(ordinal int) {
		cfg.Hub.Spans().Add(obs.Mark(plan.Key, "merge", "shard", obs.SpanArg(ordinal)))
	}
	release := func(idx int, payload []byte) error {
		for _, p := range coll.Add(idx, payload) {
			if _, err := out.Write(p); err != nil {
				return fmt.Errorf("fabric: writing merged payload: %w", err)
			}
		}
		return nil
	}

	var todo []int
	for _, s := range plan.Shards {
		if rec, ok := resumed[s.Key]; ok {
			if err := checkJournaledBody(rec); err != nil {
				return rep, err
			}
			rep.Resumed++
			rep.OK += rec.OK
			rep.Failed += rec.Failed
			reg.Counter("fabric.shards_resumed").Inc()
			cfg.Status.shardPhase(s.Index, ShardResumed, "")
			if err := release(s.Index, rec.Body); err != nil {
				return rep, err
			}
			continue
		}
		todo = append(todo, s.Index)
	}
	reg.Gauge("fabric.shards_planned").Set(float64(len(plan.Shards)))

	if len(todo) > 0 {
		if err := dispatch(ctx, cfg, plan, todo, rep, release); err != nil {
			cfg.Status.finish(err)
			return rep, err
		}
	}

	rep.Trials = rep.OK + rep.Failed
	if _, err := out.Write(campaign.BinaryTrailer(rep.Trials, rep.OK, rep.Failed)); err != nil {
		cfg.Status.finish(err)
		return rep, fmt.Errorf("fabric: writing merged trailer: %w", err)
	}
	reg.Counter("fabric.campaigns_merged").Inc()
	cfg.Status.finish(nil)
	lg.Info("campaign merged", "campaign", plan.Key, "bytes", rep.Bytes,
		"trials", rep.Trials, "ok", rep.OK, "failed", rep.Failed,
		"dispatched", rep.Dispatched, "retried", rep.Retried, "resumed", rep.Resumed)
	return rep, nil
}

// dispatch fans the remaining shards over the worker fleet and feeds
// completed payloads to release in shard order.
func dispatch(ctx context.Context, cfg Config, plan *Plan, todo []int, rep *Report, release func(int, []byte) error) error {
	reg := cfg.Hub.Reg()
	lg := obs.LoggerOr(cfg.Log)
	// Workers run under a child context so an aborted dispatch (shard
	// exhausted its attempts, write error) stops their in-flight requests
	// instead of letting them run to completion unobserved.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered so no worker goroutine ever blocks sending: each of the
	// len(todo) shards is dispatched at most MaxAttempts times, plus one
	// obituary per worker.
	queue := make(chan int, len(todo)*cfg.MaxAttempts)
	outcomes := make(chan outcome, len(todo)*cfg.MaxAttempts+len(cfg.Workers))
	for _, idx := range todo {
		queue <- idx
	}
	// The queue is closed exactly once, after the accounting loop has
	// stopped re-enqueueing; workers drain and exit.
	queueDone := make(chan struct{})
	defer close(queueDone)
	go func() {
		<-queueDone
		close(queue)
	}()

	for _, base := range cfg.Workers {
		go workerLoop(ctx, cfg, plan, base, queue, outcomes)
	}

	attempts := make(map[int]int, len(todo))
	remaining := len(todo)
	live := len(cfg.Workers)
	latency := reg.Histogram("fabric.shard_latency_ms", obs.LatencyBucketsMS())
	for remaining > 0 {
		if live == 0 {
			return fmt.Errorf("fabric: all %d workers lost with %d shards incomplete (journal retains the %d finished)",
				len(cfg.Workers), remaining, len(plan.Shards)-remaining)
		}
		var o outcome
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: %w with %d shards incomplete (journal retains the finished)", ctx.Err(), remaining)
		case o = <-outcomes:
		}
		if o.workerDead {
			live--
			rep.WorkersLost++
			reg.Counter("fabric.workers_lost").Inc()
			cfg.Status.workerLost(o.worker)
			cfg.Hub.Spans().Add(obs.Mark(plan.Key, "worker-lost", "worker", o.worker))
			lg.Warn("worker lost", "campaign", plan.Key, "worker", o.worker, "live", live)
			continue
		}
		rep.Dispatched++
		reg.Counter("fabric.shards_dispatched").Inc()
		if o.err != nil {
			reg.Counter("fabric.shard_errors").Inc()
			attempts[o.shard]++
			if attempts[o.shard] >= cfg.MaxAttempts {
				return fmt.Errorf("fabric: shard %d (%s) failed %d times, last on %s: %w",
					o.shard, plan.Shards[o.shard].Key, attempts[o.shard], o.worker, o.err)
			}
			rep.Retried++
			reg.Counter("fabric.shards_retried").Inc()
			cfg.Status.shardPhase(o.shard, ShardRetrying, o.worker)
			cfg.Hub.Spans().Add(obs.Mark(plan.Key, "redispatch",
				"shard", obs.SpanArg(o.shard), "worker", o.worker))
			lg.Warn("shard redispatched", "campaign", plan.Key, "shard", o.shard,
				"worker", o.worker, "attempt", attempts[o.shard], "err", o.err)
			queue <- o.shard
			continue
		}
		latency.Observe(float64(o.elapsed.Milliseconds()))
		reg.Counter("fabric.shards_completed").Inc()
		cfg.Status.shardPhase(o.shard, ShardDone, o.worker)
		lg.Debug("shard completed", "campaign", plan.Key, "shard", o.shard,
			"worker", o.worker, "ms", o.elapsed.Milliseconds(), "ok", o.ok, "failed", o.failed)
		if cfg.Journal != nil {
			rec := ShardRecord{
				Key:    plan.Shards[o.shard].Key,
				Index:  o.shard,
				OK:     o.ok,
				Failed: o.failed,
				Body:   o.payload,
			}
			if err := cfg.Journal.Append(rec); err != nil {
				return err
			}
		}
		rep.OK += o.ok
		rep.Failed += o.failed
		remaining--
		if err := release(o.shard, o.payload); err != nil {
			return err
		}
	}
	return nil
}

// workerLoop drains shards for one worker daemon until the queue closes
// or the worker proves dead (WorkerFailures consecutive errors), then
// reports its obituary.
func workerLoop(ctx context.Context, cfg Config, plan *Plan, base string, queue <-chan int, outcomes chan<- outcome) {
	// Trace propagation: every shard submission carries the campaign's
	// canonical hash, so worker-side queue/run spans join the fleet trace.
	client := &serve.Client{Base: base, HTTP: cfg.HTTP, Retry: cfg.Retry, Trace: plan.Key}
	spans := cfg.Hub.Spans()
	consecutive := 0
	for idx := range queue {
		shard := plan.Shards[idx]
		cfg.Status.shardPhase(idx, ShardRunning, base)
		start := time.Now()
		o := outcome{shard: idx, worker: base}
		res, err := client.RunBinary(ctx, shard.Spec)
		spans.Add(obs.NewSpan(plan.Key, "dispatch", start,
			"shard", obs.SpanArg(idx), "worker", base))
		if err == nil {
			spans.Add(obs.Mark(plan.Key, "stream",
				"shard", obs.SpanArg(idx), "worker", base, "bytes", obs.SpanArg(len(res.Body))))
			vstart := time.Now()
			o.payload, o.ok, o.failed, err = splitBinaryShard(res.Body, shard.Trials)
			spans.Add(obs.NewSpan(plan.Key, "validate", vstart,
				"shard", obs.SpanArg(idx), "worker", base))
		}
		o.err = err
		o.elapsed = time.Since(start)
		outcomes <- o
		if err != nil {
			consecutive++
			if consecutive >= cfg.WorkerFailures || ctx.Err() != nil {
				outcomes <- outcome{worker: base, workerDead: true}
				return
			}
			continue
		}
		consecutive = 0
	}
}
