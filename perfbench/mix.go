package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/serve"
)

// daemon-mix runs reads beside writes on one slab cache: two clients on
// keep-alive connections to one in-process serve.Server with an obs.Hub,
// the way `injectabled serve` deploys it. Each client cycle sends one
// miss — a committed examples/scenarios spec at a fresh seed base, via
// POST /v1/scenario — and then a fixed number of hits replaying specs
// that client already completed, split across /v1/run (catalog names) and
// /v1/scenario (DSL), in binary and NDJSON, plus POST /v1/aggregate.
// Misses execute, encode and fill the cache; hits bypass the simulator,
// so a simulator change must not move hit latency. Every DSL hit runs
// scenario admission twice before the cache lookup (ScenarioJobSpec or
// DecodeJobSpec, then Registry.Validate), and Server.jobs keeps every
// terminal job and its stream: fixes to admission cost and to daemon
// memory show up here. A short operation is a hit, a long one a miss.
var mixWorkload = workload{
	name:     "daemon-mix",
	shape:    loadShape{generators: mixClients, connections: mixClients, daemons: [][2]int{{mixJobWorkers, 1}}},
	headline: "jobs_per_s",
	aliases: [][2]string{
		{"hit_p50_ms", "short_p50_ms"}, {"hit_p99_ms", "short_p99_ms"},
		{"miss_p50_ms", "long_p50_ms"}, {"miss_p90_ms", "long_p90_ms"},
	},
	setup: newMix,
}

const (
	mixClients = 2
	// mixJobWorkers lets each client's miss run at once, one trial worker
	// each: two trial goroutines in all.
	mixJobWorkers = 2
	// mixHits per cycle follows the one serving mix on record, the loadgen
	// run in EXPERIMENTS.md ("Serving throughput"): 56 cache hits for 3
	// executed misses, about 19 per miss. Its 5 singleflight joins have no
	// counterpart here, where every X-Cache is checked against a designed
	// hit or miss.
	mixHits = 19
	// mixTrials per point keeps one miss short enough for a run to yield
	// well over 100 of them (the miss p90 needs ten beyond it); the
	// loadgen jobs ran 5 trials each.
	mixTrials = 1
	// mixRecent bounds how far back DSL hits reach; recent entries stay
	// in the daemon's LRU whatever the run length.
	mixRecent = 4
	// exampleDir holds the committed scenario specs, relative to the
	// repository root the benchmark runs from.
	exampleDir = "examples/scenarios"
)

// mixExamples are the committed specs misses cycle through.
var mixExamples = []string{"exp1", "ablation-sca", "fleet-update"}

// mixCatalog are the catalog jobs each client completes in set-up and
// then replays as hits.
var mixCatalog = [mixClients][]string{{"exp1", "exp2"}, {"exp3wall", "ablation-sca"}}

// mixSeedBase gives every job a client submits (n counts them) its own
// seed base; a spec spans at most 56000 seeds.
func mixSeedBase(seed uint64, client, n int) uint64 {
	return 1_000_000 + seed*1_000_000_000 + uint64(n*mixClients+client)*100_000
}

// hit kinds, cycled through in this order.
const (
	hitCatalogBinary = iota
	hitCatalogNDJSON
	hitDSLBinary
	hitDSLNDJSON
	hitAggregate
	hitKinds
)

var hitNames = [hitKinds]string{"run catalog binary", "run catalog ndjson", "scenario binary", "scenario ndjson", "aggregate"}

// stored is one stream a client has completed, with the expected bytes
// of its replays.
type stored struct {
	path   string // request path of a binary replay
	body   []byte // request body
	job    []byte // JobSpec JSON, for /v1/aggregate
	spec   serve.JobSpec
	binary []byte
	ndjson []byte // lazily: the binary stream's NDJSON transcode
	agg    []byte // lazily: the aggregate the daemon answers with
}

func (s *stored) expected(format string) ([]byte, error) {
	switch format {
	case serve.FormatNDJSON:
		if s.ndjson == nil {
			var b bytes.Buffer
			if err := campaign.TranscodeBinaryToNDJSON(&b, s.binary); err != nil {
				return nil, err
			}
			s.ndjson = b.Bytes()
		}
		return s.ndjson, nil
	case "aggregate":
		if s.agg == nil {
			agg, err := serve.AggregateStream(s.binary)
			if err != nil {
				return nil, err
			}
			var b bytes.Buffer
			if err := json.NewEncoder(&b).Encode(agg); err != nil {
				return nil, err
			}
			s.agg = b.Bytes()
		}
		return s.agg, nil
	}
	return s.binary, nil
}

type mix struct {
	seed     uint64
	d        *daemon
	examples [][]byte
	clients  []*mixClient
	feedMu   sync.Mutex
	feed     *hubFeed
	probe    *stored   // the first DSL stream, for the codec timings
	traced   mixCounts // what the traced loop's cycles counted
}

// mixCounts are the daemon's hit, miss, join and rejection counters and
// the clients' completed cycles.
type mixCounts struct {
	cycles, hits, misses, joins, rejects int64
}

type mixClient struct {
	id      int
	m       *mix
	http    *http.Client
	jobs    int // jobs submitted (seed-base counter)
	cycles  int
	catalog []*stored
	dsl     []*stored // most recent last
	// traced-run hit latencies by route, ms
	catalogHit, dslHit []float64
}

func newMix(seed uint64) (instance, error) {
	m := &mix{seed: seed}
	for _, name := range mixExamples {
		raw, err := os.ReadFile(exampleDir + "/" + name + ".json")
		if err != nil {
			return nil, fmt.Errorf("reading the committed scenario specs (run from the repository root): %w", err)
		}
		m.examples = append(m.examples, raw)
	}
	d, err := startDaemon(serve.Config{JobWorkers: mixJobWorkers, TrialWorkers: 1})
	if err != nil {
		return nil, err
	}
	m.d = d
	m.feed = &hubFeed{lane: "daemon", log: d.hub.Spans()}
	for i := 0; i < mixClients; i++ {
		m.clients = append(m.clients, &mixClient{id: i, m: m, http: &http.Client{Transport: newTransport()}})
	}
	// The untimed repetition: every client completes its catalog jobs and
	// a first DSL spec, which fill the cache its hits replay, then one
	// cycle.
	tallies := make([]*tally, mixClients)
	collect(mixClients, func(i int) {
		c := m.clients[i]
		t := &tally{}
		for _, name := range mixCatalog[i] {
			body, err := json.Marshal(serve.JobSpec{Experiment: name, Trials: mixTrials, SeedBase: c.nextBase()})
			if err != nil {
				t.fail("%v", err)
				continue
			}
			if s := c.miss(t, nil, "", "/v1/run", body, body); s != nil {
				c.catalog = append(c.catalog, s)
			}
		}
		c.keep(c.dslMiss(t, nil, ""))
		c.cycle(t, nil)
		tallies[i] = t
	})
	for _, t := range tallies {
		if t.failed > 0 {
			m.close()
			return nil, fmt.Errorf("untimed repetition: %s", t.failures[0])
		}
	}
	m.probe = m.clients[0].dsl[0]
	return m, nil
}

func (c *mixClient) nextBase() uint64 {
	b := mixSeedBase(c.m.seed, c.id, c.jobs)
	c.jobs++
	return b
}

// post sends one request and reads the whole response; d runs from the
// request being sent to the last byte being read.
func (c *mixClient) post(path string, body []byte) (resp *http.Response, data []byte, start time.Time, d time.Duration, err error) {
	start = time.Now()
	resp, err = c.http.Post(c.m.d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, start, 0, err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, start, time.Since(start), err
}

// miss submits a spec the daemon has never seen, expects X-Cache: miss
// and a clean stream, and returns what the client now holds. path is the
// binary route; job is the same spec as a JobSpec, for /v1/aggregate.
func (c *mixClient) miss(t *tally, tr *tracer, parent, path string, body, job []byte) *stored {
	t.attempted++
	resp, data, start, d, err := c.post(path+sep(path)+"format=binary", body)
	if err != nil {
		t.fail("miss %s: %v", path, err)
		return nil
	}
	jobID := resp.Header.Get("X-Job-ID")
	tr.span("miss", "miss/"+jobID, parent, "job "+jobID, start)
	t.long = append(t.long, ms(d))
	var s *stored
	trials := 0
	defer func() { t.done(trials) }()
	checked(func() {
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.fail("miss %s: status %d, X-Cache %q (want 200, miss)", path, resp.StatusCode, resp.Header.Get("X-Cache"))
			return
		}
		_, tl, err := campaign.ScanBinary(data, nil)
		if err == nil && tl.Failed != 0 {
			err = fmt.Errorf("%d of %d trials failed", tl.Failed, tl.Trials)
		}
		if err != nil {
			t.fail("miss %s: %v", path, err)
			return
		}
		trials = tl.Trials
		var spec serve.JobSpec
		if err := json.Unmarshal(job, &spec); err != nil {
			t.fail("miss %s: %v", path, err)
			return
		}
		s = &stored{path: path, body: body, job: job, spec: spec, binary: data}
	})
	return s
}

// sep returns the separator before another query parameter.
func sep(path string) string {
	if strings.Contains(path, "?") {
		return "&"
	}
	return "?"
}

// dslMiss sends the next committed example spec at a fresh seed base.
func (c *mixClient) dslMiss(t *tally, tr *tracer, parent string) *stored {
	raw := c.m.examples[(c.cycles*mixClients+c.id)%len(c.m.examples)]
	base := c.nextBase()
	q := url.Values{"trials": {strconv.Itoa(mixTrials)}, "seed_base": {strconv.FormatUint(base, 10)}}
	job, err := json.Marshal(serve.JobSpec{Scenario: raw, Trials: mixTrials, SeedBase: base})
	if err != nil {
		t.fail("%v", err)
		return nil
	}
	return c.miss(t, tr, parent, "/v1/scenario?"+q.Encode(), raw, job)
}

// keep adds a completed DSL stream to the replay targets.
func (c *mixClient) keep(s *stored) {
	if s == nil {
		return
	}
	c.dsl = append(c.dsl, s)
	if len(c.dsl) > 2*mixRecent {
		c.dsl = c.dsl[len(c.dsl)-mixRecent:]
	}
}

// cycle is one closed-loop client cycle: one DSL miss, then mixHits hits.
// The hits replay streams completed in earlier cycles: the daemon still
// counts a job as live for a moment after its last byte is sent, so an
// immediate replay of this cycle's miss would join it instead of hitting.
func (c *mixClient) cycle(t *tally, tr *tracer) {
	id := tr.nextID("cycle")
	start := time.Now()
	s := c.dslMiss(t, tr, id)
	for h := 0; h < mixHits; h++ {
		c.hit(t, tr, id, h)
	}
	c.keep(s)
	c.cycles++
	tr.span("client.cycle", id, "", fmt.Sprintf("client %d cycle %d", c.id, c.cycles), start)
	if tr != nil {
		c.m.pollSpans(tr)
	}
}

// hit replays one completed stream and checks the bytes.
func (c *mixClient) hit(t *tally, tr *tracer, parent string, h int) {
	kind, round := h%hitKinds, h/hitKinds
	t.attempted++
	if len(c.dsl) == 0 || len(c.catalog) == 0 {
		t.fail("hit %s: nothing completed to replay", hitNames[kind])
		return
	}
	catalog := c.catalog[round%len(c.catalog)]
	dsl := c.dsl[len(c.dsl)-1-round%min(len(c.dsl), mixRecent)]
	var s *stored
	var path, format string
	var body []byte
	switch kind {
	case hitCatalogBinary, hitCatalogNDJSON:
		s, body = catalog, catalog.body
	case hitDSLBinary, hitDSLNDJSON:
		s, body = dsl, dsl.body
	case hitAggregate:
		s = dsl
		if round%2 == 1 {
			s = catalog
		}
		body = s.job
	}
	switch kind {
	case hitCatalogBinary, hitDSLBinary:
		path, format = s.path+sep(s.path)+"format=binary", serve.FormatBinary
	case hitCatalogNDJSON, hitDSLNDJSON:
		path, format = s.path+sep(s.path)+"format=ndjson", serve.FormatNDJSON
	case hitAggregate:
		path, format = "/v1/aggregate", "aggregate"
	}
	resp, data, start, d, err := c.post(path, body)
	if err != nil {
		t.fail("hit %s: %v", hitNames[kind], err)
		return
	}
	jobID := resp.Header.Get("X-Job-ID")
	tr.span("hit "+hitNames[kind], tr.nextID("hit"), parent, "job "+jobID, start)
	t.done(0)
	t.short = append(t.short, ms(d))
	if tr != nil {
		if len(s.spec.Scenario) > 0 {
			c.dslHit = append(c.dslHit, ms(d))
		} else {
			c.catalogHit = append(c.catalogHit, ms(d))
		}
	}
	checked(func() {
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.fail("hit %s: status %d, X-Cache %q (want 200, hit)", hitNames[kind], resp.StatusCode, resp.Header.Get("X-Cache"))
			return
		}
		if err := s.checkReplay(format, data); err != nil {
			t.fail("hit %s: %v", hitNames[kind], err)
		}
	})
}

// checkReplay is daemon-mix's hit check: a replay's bytes equal the
// stream its miss returned, or that stream's NDJSON transcode, or the
// aggregate of it.
func (s *stored) checkReplay(format string, data []byte) error {
	want, err := s.expected(format)
	if err == nil && !bytes.Equal(data, want) {
		err = fmt.Errorf("%d bytes differ from the %d its miss returned", len(data), len(want))
	}
	return err
}

// pollSpans collects the daemon's queue/run spans and cache-hit marks,
// each linked to the client miss span of its job.
func (m *mix) pollSpans(tr *tracer) {
	m.feedMu.Lock()
	defer m.feedMu.Unlock()
	m.feed.poll(tr, func(s *obs.Span) {
		job := s.Args["job"]
		setArg(s, "id", tr.nextID("daemon/"+s.Name))
		setArg(s, "req", "job "+job)
		if s.Name != "cache-hit" {
			setArg(s, "parent", "miss/"+job)
		}
	})
}

// counts reads the daemon's counters and the clients' completed cycles.
func (m *mix) counts() mixCounts {
	n := mixCounts{
		hits:    m.d.counter("serve.cache_hits"),
		misses:  m.d.counter("serve.cache_misses"),
		joins:   m.d.counter("serve.joins"),
		rejects: m.d.counter("serve.reject_invalid") + m.d.counter("serve.reject_queue_full") + m.d.counter("serve.reject_draining"),
	}
	for _, c := range m.clients {
		n.cycles += int64(c.cycles)
	}
	return n
}

func (m *mix) run(until time.Time, tr *tracer) *tally {
	if tr != nil {
		m.feed.skip()
	}
	before := m.counts()
	tallies := make([]*tally, mixClients)
	start := time.Now()
	collect(mixClients, func(i int) {
		t := &tally{}
		for time.Now().Before(until) {
			m.clients[i].cycle(t, tr)
		}
		tallies[i] = t
	})
	t := &tally{elapsed: time.Since(start)}
	for _, ct := range tallies {
		t.merge(ct)
	}
	// The hub's counters must match the designed mix exactly: one miss and
	// mixHits hits per client cycle, no join and no rejection.
	after := m.counts()
	n := mixCounts{
		cycles: after.cycles - before.cycles, hits: after.hits - before.hits, misses: after.misses - before.misses,
		joins: after.joins - before.joins, rejects: after.rejects - before.rejects,
	}
	t.attempted++
	if n.hits != n.cycles*mixHits || n.misses != n.cycles || n.joins != 0 || n.rejects != 0 {
		t.fail("daemon counted %d hits, %d misses, %d joins, %d rejects over %d cycles of 1 miss and %d hits",
			n.hits, n.misses, n.joins, n.rejects, n.cycles, mixHits)
	}
	if tr != nil {
		m.traced = n
	}
	return t
}

func (m *mix) layers(tr *tracer, mt map[string]float64) error {
	var catalogHit, dslHit []float64
	for _, c := range m.clients {
		catalogHit = append(catalogHit, c.catalogHit...)
		dslHit = append(dslHit, c.dslHit...)
	}
	for metric, samples := range map[string][]float64{"serve.catalog_hit_ms": catalogHit, "serve.dsl_hit_ms": dslHit} {
		v, err := percentile(samples, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
		mt[metric] = v
	}
	if err := spanMedians(tr, mt, map[string]string{"serve.queue_wait_ms": "queue", "serve.run_ms": "run"}); err != nil {
		return err
	}
	if n := m.traced; n.cycles > 0 {
		mt["serve.hits_per_cycle"] = float64(n.hits) / float64(n.cycles)
		mt["serve.misses_per_cycle"] = float64(n.misses) / float64(n.cycles)
	}
	mt["serve.joins"] = float64(m.traced.joins)
	mt["serve.rejects"] = float64(m.traced.rejects)

	if err := streamLayers(m.probe.binary, mt); err != nil {
		return err
	}
	if err := scenarioLayers(m.examples, mixTrials, mt); err != nil {
		return err
	}
	// Submit replays a recent stream of the first example: recent, so the
	// daemon's LRU still holds it.
	c := m.clients[0]
	recent := c.dsl[len(c.dsl)-1]
	for _, s := range c.dsl {
		if bytes.Equal(s.body, m.examples[0]) {
			recent = s
		}
	}
	spec, err := serve.ScenarioJobSpec(recent.body, recent.spec)
	if err != nil {
		return err
	}
	d, err := timeOp(layerReps, func() error {
		_, disp, err := m.d.srv.Submit(spec)
		if err == nil && disp != "hit" {
			err = fmt.Errorf("submit of a completed spec was a %s", disp)
		}
		return err
	})
	if err != nil {
		return err
	}
	mt["serve.submit_hit_us"] = us(d)
	return nil
}

func (m *mix) close() {
	m.d.close()
	for _, c := range m.clients {
		c.http.CloseIdleConnections()
	}
}
