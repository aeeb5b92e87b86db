package main

// metricDef is one reported metric: its name and unit as printed and as
// listed in BENCHMARK.json, which direction is better, and (for per-layer
// metrics) the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics of the untraced run, reported on every
// workload. Each workload's caller sees two latency modes, reported
// apart so no percentile straddles them: "short" and "long" operations.
// On daemon-mix they are cache hits and cache misses; on fleet-fork one
// shard (a worker-daemon job) and one whole sharded campaign; on
// fig9-catalog one trial and one point (its 25 trials). A job is one
// call the closed loop waits on: a sweep run (fig9-catalog), a sharded
// campaign (fleet-fork) or an HTTP request (daemon-mix).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of several set-ups: daemons, registries, specs and one untimed operation"},
	{"trials_per_s", "1/s", "higher", "trials simulated ÷ wall-clock seconds of the whole loop"},
	{"jobs_per_s", "1/s", "higher", "closed-loop jobs completed ÷ wall-clock seconds of the whole loop"},
	{"short_p50_ms", "ms", "lower", "short operations: hit, shard or trial"},
	{"short_p99_ms", "ms", "lower", "short operations: hit, shard or trial"},
	{"long_p50_ms", "ms", "lower", "long operations: miss, sharded campaign or point"},
	{"long_p90_ms", "ms", "lower", "long operations: miss, sharded campaign or point"},
	{"max_rss_mb", "MB", "lower", "peak resident memory of the benchmark process"},
}

// perLayer are the metrics of the traced run. A metric that does not
// apply to a workload (fabric shards on daemon-mix, say) reads 0 there.
var perLayer = []metricDef{
	{"cpu.sim.scheduler", "share", "lower", "trials_per_s on fig9-catalog and fleet-fork"},
	{"cpu.sim.snapshot", "share", "lower", "trials_per_s on fleet-fork; ~0 on fig9-catalog"},
	{"cpu.sim.rng", "share", "lower", "trials_per_s on fleet-fork; little on fig9-catalog"},
	{"cpu.phy", "share", "lower", "trials_per_s on both sweeps, long_p50_ms (miss) on daemon-mix"},
	{"cpu.medium", "share", "lower", "trials_per_s on both sweeps, long_p50_ms (miss) on daemon-mix"},
	{"cpu.link", "share", "lower", "trials_per_s on both sweeps, long_p50_ms (miss) on daemon-mix"},
	{"cpu.injectable", "share", "lower", "trials_per_s on both sweeps, long_p50_ms (miss) on daemon-mix"},
	{"cpu.host", "share", "lower", "trials_per_s on fig9-catalog"},
	{"cpu.ids", "share", "lower", "long_p50_ms (miss) on daemon-mix (fleet-update runs the IDS)"},
	{"cpu.experiments", "share", "lower", "trials_per_s on both sweeps"},
	{"cpu.campaign", "share", "lower", "trials_per_s on both sweeps"},
	{"cpu.scenario", "share", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"cpu.serve", "share", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"cpu.fabric", "share", "lower", "trials_per_s on fleet-fork"},
	{"cpu.obs", "share", "lower", "every workload (instrumentation cost)"},
	{"cpu.gc", "share", "lower", "every workload"},
	{"cpu.other", "share", "lower", "short_p50_ms (hit) on daemon-mix (net/http)"},
	{"cpu.bench", "share", "lower", "none: the benchmark's own output checks"},
	{"sim.host_us_per_sim_s", "us", "lower", "trials_per_s on both sweeps"},
	{"medium.frames_per_trial", "count", "lower", "work done: equal unless the stream changes"},
	{"medium.collisions_per_trial", "count", "lower", "work done: equal unless the stream changes"},
	{"link.events_per_trial", "count", "lower", "work done: equal unless the stream changes"},
	{"link.windows_per_trial", "count", "lower", "work done: equal unless the stream changes"},
	{"inject.attempts_per_trial", "count", "lower", "work done: equal unless the stream changes"},
	{"phy.airtime_ms_per_trial", "sim_ms", "lower", "work done: equal unless the stream changes"},
	{"inject.hit_ratio", "ratio", "higher", "attempts per trial, and so trials_per_s"},
	{"alloc_kb_per_trial", "KB", "lower", "cpu.gc, and so trials_per_s"},
	{"allocs_per_trial", "count", "lower", "cpu.gc, and so trials_per_s"},
	{"experiments.run_trial_ms", "ms", "lower", "trials_per_s on fig9-catalog"},
	{"experiments.warm_ms", "ms", "lower", "trials_per_s on fleet-fork (once per shard)"},
	{"experiments.run_fork_ms", "ms", "lower", "trials_per_s on fleet-fork"},
	{"campaign.utilization", "ratio", "higher", "trials_per_s on fig9-catalog"},
	{"campaign.encode_us_per_trial", "us", "lower", "long_p50_ms (miss) on daemon-mix; trials_per_s on fleet-fork"},
	{"campaign.ndjson_us_per_trial", "us", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"campaign.bytes_per_trial", "B", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"scenario.decode_us", "us", "lower", "short_p50_ms (DSL hit) on daemon-mix"},
	{"scenario.validate_us", "us", "lower", "short_p50_ms (DSL hit) on daemon-mix"},
	{"scenario.canonical_us", "us", "lower", "short_p50_ms (DSL hit) on daemon-mix"},
	{"scenario.compile_us", "us", "lower", "short_p50_ms (DSL hit) on daemon-mix"},
	{"serve.catalog_hit_ms", "ms", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"serve.dsl_hit_ms", "ms", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"serve.submit_hit_us", "us", "lower", "short_p50_ms (hit) on daemon-mix"},
	{"serve.queue_wait_ms", "ms", "lower", "long_p50_ms and long_p90_ms (miss) on daemon-mix; trials_per_s on fleet-fork"},
	{"serve.run_ms", "ms", "lower", "long_p50_ms and long_p90_ms (miss) on daemon-mix; trials_per_s on fleet-fork"},
	{"serve.aggregate_us", "us", "lower", "short_p50_ms (aggregate hit) on daemon-mix"},
	{"serve.hits_per_cycle", "count", "higher", "exact: the designed hits per client cycle on daemon-mix"},
	{"serve.joins", "count", "lower", "exact: 0 in the traced loop on daemon-mix"},
	{"serve.misses_per_cycle", "count", "lower", "exact: the designed one miss per client cycle on daemon-mix"},
	{"serve.rejects", "count", "lower", "exact: 0 in the traced loop on daemon-mix"},
	{"fabric.plan_us", "us", "lower", "trials_per_s on fleet-fork"},
	{"fabric.shard_p50_ms", "ms", "lower", "trials_per_s on fleet-fork"},
	{"fabric.shard_p90_ms", "ms", "lower", "trials_per_s on fleet-fork"},
	{"fabric.validate_us", "us", "lower", "trials_per_s on fleet-fork"},
	{"fabric.merge_us", "us", "lower", "trials_per_s on fleet-fork"},
	{"fabric.worker_idle_share", "share", "lower", "trials_per_s on fleet-fork"},
	{"fabric.dispatched", "count", "lower", "exact: shards per campaign on fleet-fork"},
	{"fabric.retried", "count", "lower", "exact: 0 on fleet-fork"},
	{"trace.spans_lost", "count", "lower", "none: program spans evicted before collection"},
	{"trace_overhead", "ratio", "higher", "none: traced ÷ untraced headline metric"},
}
