package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"injectable/internal/campaign"
	"injectable/internal/obs"
	"injectable/internal/scenario"
)

// Config shapes a Server. The zero value of every field is replaced by
// the documented default.
type Config struct {
	// Registry maps experiment names to campaigns. Nil means
	// DefaultRegistry().
	Registry *Registry
	// Hub receives the serving metrics. Nil disables them (every obs
	// method no-ops on nil receivers).
	Hub *obs.Hub
	// QueueCap bounds the admission queue (default 64). A full queue
	// answers 429 with a Retry-After hint.
	QueueCap int
	// JobWorkers is the number of campaigns executed concurrently
	// (default 2). Each job gets its own campaign worker pool.
	JobWorkers int
	// TrialWorkers is the campaign pool size per job (default 0 =
	// GOMAXPROCS). Worker count never changes result bytes.
	TrialWorkers int
	// CacheEntries bounds the completed-result LRU (default 256).
	CacheEntries int
	// RetryAfter is the hint returned with 429/503 (default 2s).
	RetryAfter time.Duration
	// DefaultTimeout caps a job's run when the spec carries no timeout_ms
	// (default 5m).
	DefaultTimeout time.Duration
	// Log receives structured lifecycle events (admissions, completions,
	// rejects, drain). Nil means silent — the historical behavior.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	return c
}

// errDraining rejects submissions while the server shuts down.
var errDraining = errors.New("serve: draining, not accepting jobs")

// Server executes campaign jobs behind an HTTP/JSON API.
//
// Submission dispositions, in decision order:
//
//	draining  -> 503 + Retry-After
//	invalid   -> 400
//	join      -> an identical spec is already queued or running; the
//	             submission attaches to that job (singleflight)
//	hit       -> an identical spec already completed; the cached stream
//	             replays byte-identically
//	miss      -> admitted onto the queue (429 + Retry-After when full)
type Server struct {
	cfg   Config
	queue *jobQueue
	cache *resultCache
	ids   jobIDs
	mux   *http.ServeMux
	wg    sync.WaitGroup
	log   *slog.Logger

	mu   sync.Mutex
	jobs map[string]*job // by id: live jobs plus the retained terminal ones
	live map[string]*job // by spec key, queued or running only
	// uncached holds the ids of retained terminal jobs whose streams were
	// never cached (failed, canceled, timed out), oldest first.
	uncached []string
	inflight int
	draining bool
}

// NewServer starts a server's executors and returns it. Call Drain or
// Close to stop.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: newJobQueue(cfg.QueueCap),
		cache: newResultCache(cfg.CacheEntries),
		jobs:  map[string]*job{},
		live:  map[string]*job{},
		log:   obs.LoggerOr(cfg.Log),
	}
	// A completed job stays addressable exactly as long as the cache holds
	// its stream; the cache calls this under s.mu (see retire).
	s.cache.onEvict = func(c *cached) { delete(s.jobs, c.jobID) }
	s.routes()
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// reg is shorthand for the metrics registry (nil-safe).
func (s *Server) reg() *obs.Registry { return s.cfg.Hub.Reg() }

func msHist() []float64 { return obs.LatencyBucketsMS() }

// Submit admits a job spec. The returned disposition is one of "miss"
// (admitted as a fresh execution), "join" (attached to an identical
// in-flight job) or "hit" (replaying a completed identical job from the
// cache); the returned job is terminal already on a hit. Errors:
// errDraining, ErrQueueFull, or a validation error.
func (s *Server) Submit(spec JobSpec) (*job, string, error) {
	return s.submit(spec, "")
}

// submit is Submit with an optional caller-propagated trace id (from the
// X-Trace-Id header; a coordinator passes its campaign-level spec hash so
// worker-side spans join the fleet trace). An empty trace defaults to the
// job's own canonical key.
func (s *Server) submit(spec JobSpec, trace string) (*job, string, error) {
	norm, err := s.cfg.Registry.Validate(spec)
	if err != nil {
		s.reg().Counter("serve.reject_invalid").Inc()
		s.log.Warn("job rejected", "reason", "invalid", "err", err)
		return nil, "", err
	}
	key := norm.Key()
	if trace == "" {
		trace = key
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.reg().Counter("serve.reject_draining").Inc()
		s.log.Warn("job rejected", "reason", "draining", "key", key)
		return nil, "", errDraining
	}
	if j, ok := s.live[key]; ok {
		s.reg().Counter("serve.joins").Inc()
		s.log.Debug("job joined", "id", j.id, "key", key)
		return j, "join", nil
	}
	if c, ok := s.cache.get(key); ok {
		// A cached stream's job stays in s.jobs until the cache evicts the
		// stream, so the job that produced the slab is still here; hand it
		// back and let the HTTP layer replay its sealed buffer zero-copy.
		// No fresh job, no context, no 40 KB copy — this is the serving
		// hot path.
		if j, live := s.jobs[c.jobID]; live {
			s.reg().Counter("serve.cache_hits").Inc()
			s.cfg.Hub.Spans().Add(obs.Mark(trace, "cache-hit", "job", j.id, "key", key))
			if s.log.Enabled(context.Background(), slog.LevelDebug) {
				s.log.Debug("cache hit", "id", j.id, "key", key)
			}
			return j, "hit", nil
		}
	}
	j := newJob(s.ids.next(), norm, time.Now())
	j.trace = trace
	if err := s.queue.push(j); err != nil {
		s.reg().Counter("serve.reject_queue_full").Inc()
		s.log.Warn("job rejected", "reason", "queue full", "key", key)
		return nil, "", err
	}
	s.jobs[j.id] = j
	s.live[key] = j
	s.reg().Counter("serve.cache_misses").Inc()
	s.reg().Counter("serve.jobs_admitted").Inc()
	s.reg().Gauge("serve.queue_depth").Set(float64(s.queue.depth()))
	s.log.Info("job admitted", "id", j.id, "experiment", norm.Experiment,
		"target", norm.Target, "trials", norm.Trials, "key", key, "depth", s.queue.depth())
	return j, "miss", nil
}

// Job returns a job by id.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// executor pops and runs jobs until the queue closes and drains.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.reg().Gauge("serve.queue_depth").Set(float64(s.queue.depth()))
		s.runJob(j)
	}
}

// runJob executes one admitted job to a terminal state.
func (s *Server) runJob(j *job) {
	start := time.Now()
	s.reg().Histogram("serve.queue_wait_ms", msHist()).
		Observe(float64(start.Sub(j.submitted).Milliseconds()))
	s.cfg.Hub.Spans().Add(obs.NewSpan(j.trace, "queue", j.submitted,
		"job", j.id, "experiment", j.spec.Experiment))

	// finish makes the job terminal, caching its stream when cacheable
	// (the run completed cleanly). Sealing the stream, closing done and
	// retiring the job happen in one s.mu section, and a resubmission
	// takes s.mu too: a client that has read the whole stream, or seen
	// the job end, and resubmits finds it cached, never live.
	finish := func(status JobStatus, errMsg string, cacheable bool) {
		s.mu.Lock()
		j.buf.seal()
		var entry *cached
		if cacheable {
			// The sealed buffer is immutable, so the cache can adopt it
			// without copying; hits replay the same slab zero-copy.
			slab, _ := j.buf.sealedBytes()
			entry = &cached{jobID: j.id, slab: slab}
		}
		j.setStatus(status, errMsg)
		if s.live[j.key] == j {
			delete(s.live, j.key)
		}
		s.retire(j, entry)
		s.mu.Unlock()
		switch status {
		case StatusDone:
			s.reg().Counter("serve.jobs_done").Inc()
		case StatusCanceled:
			s.reg().Counter("serve.jobs_canceled").Inc()
		default:
			s.reg().Counter("serve.jobs_failed").Inc()
		}
		s.reg().Histogram("serve.job_e2e_ms", msHist()).
			Observe(float64(time.Since(j.submitted).Milliseconds()))
		s.cfg.Hub.Spans().Add(obs.NewSpan(j.trace, "run", start,
			"job", j.id, "experiment", j.spec.Experiment, "status", string(status)))
		s.log.Info("job finished", "id", j.id, "status", status, "err", errMsg,
			"e2e_ms", time.Since(j.submitted).Milliseconds())
	}

	if j.canceledCtx.Err() != nil {
		finish(StatusCanceled, "canceled while queued", false)
		return
	}

	cspec, err := s.cfg.Registry.Build(j.spec)
	if err != nil {
		finish(StatusFailed, err.Error(), false)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(j.canceledCtx, timeout)
	defer cancel()

	j.setStatus(StatusRunning, "")
	s.reg().Gauge("serve.inflight_jobs").Set(float64(s.inflightDelta(1)))
	defer func() { s.reg().Gauge("serve.inflight_jobs").Set(float64(s.inflightDelta(-1))) }()

	// Campaigns run once, into the binary codec; NDJSON and SSE are
	// on-demand transcodes of these bytes.
	sink := campaign.NewBinary(&j.buf)
	runner := campaign.Runner{
		Workers: s.cfg.TrialWorkers,
		Sinks:   []campaign.Sink{sink},
	}
	out, err := runner.RunContext(ctx, cspec)
	switch {
	case errors.Is(err, context.Canceled):
		finish(StatusCanceled, "canceled", false)
		return
	case errors.Is(err, context.DeadlineExceeded):
		finish(StatusFailed, "deadline exceeded", false)
		return
	case err != nil:
		finish(StatusFailed, err.Error(), false)
		return
	}
	// Only a cleanly completed stream is cacheable: cancellation and
	// per-trial timeouts truncate at a wall-clock-dependent point, and a
	// replay must be byte-identical to a fresh run.
	for _, res := range out.Results {
		if res.TimedOut {
			finish(StatusDone, "", false)
			return
		}
	}
	finish(StatusDone, "", true)
}

// retire files a terminal job; s.mu must be held. A cached stream keeps
// its job in s.jobs until the cache evicts it. Of the jobs whose streams
// were never cached, the newest CacheEntries stay queryable and the
// oldest is dropped first, so the table holds at most twice CacheEntries
// terminal jobs beside the live ones.
func (s *Server) retire(j *job, entry *cached) {
	if entry != nil {
		s.cache.put(j.key, entry)
		return
	}
	s.uncached = append(s.uncached, j.id)
	if len(s.uncached) > s.cfg.CacheEntries {
		delete(s.jobs, s.uncached[0])
		s.uncached = s.uncached[1:]
	}
}

// inflightDelta adjusts and returns the in-flight job count.
func (s *Server) inflightDelta(d int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight += d
	return s.inflight
}

// Drain stops admission, lets the executors finish every accepted job,
// and returns when they exit (or ctx expires). New submissions are
// rejected with 503 for HTTP callers.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.log.Info("draining", "inflight", s.inflightDelta(0), "queued", s.queue.depth())
		s.queue.close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops admission and cancels every queued and running job, then
// waits for the executors.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	livejobs := make([]*job, 0, len(s.live))
	for _, j := range s.live {
		livejobs = append(livejobs, j)
	}
	s.mu.Unlock()
	s.queue.close()
	for _, j := range livejobs {
		j.cancel()
	}
	s.wg.Wait()
}

// ---- HTTP layer ----

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/aggregate", s.handleJobAggregate)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	mux.HandleFunc("POST /v1/aggregate", s.handleAggregate)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/spans", s.handleSpans)
	s.mux = mux
}

// Result stream formats. The binary codec is the storage format; NDJSON
// (the default, for compatibility with every existing consumer) and SSE
// are transcoded on demand.
const (
	FormatBinary = "binary"
	FormatNDJSON = "ndjson"
	formatSSE    = "sse"

	// BinaryContentType labels the campaign binary trial stream.
	BinaryContentType = "application/x-injectable-trials"
)

// streamFormat resolves a results request's format: the ?format= query
// wins, then the Accept header, then the NDJSON default. SSE remains a
// results-endpoint affordance only (allowSSE), matching the existing
// API shape.
func streamFormat(r *http.Request, allowSSE bool) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "":
	case FormatBinary:
		return FormatBinary, nil
	case FormatNDJSON:
		return FormatNDJSON, nil
	case formatSSE:
		if allowSSE {
			return formatSSE, nil
		}
		return "", fmt.Errorf("serve: format %q not supported on this endpoint", f)
	default:
		return "", fmt.Errorf("serve: unknown format %q (want %q or %q)", f, FormatBinary, FormatNDJSON)
	}
	accept := r.Header.Get("Accept")
	switch {
	case allowSSE && accept == "text/event-stream":
		return formatSSE, nil
	case strings.Contains(accept, BinaryContentType):
		return FormatBinary, nil
	}
	return FormatNDJSON, nil
}

// errorBody is the JSON error response. Fields carries structured
// per-field failures when the rejection came from scenario validation,
// so clients can map "devices[2].type: unknown device type" back onto
// their spec instead of parsing a prose message.
type errorBody struct {
	Error  string                `json:"error"`
	Fields []scenario.FieldError `json:"fields,omitempty"`
}

// httpError writes a JSON error body and counts the rejection per status
// code, so rejects show up in the exposition as
// serve_http_errors{code="..."}.
func (s *Server) httpError(w http.ResponseWriter, code int, msg string) {
	s.writeError(w, code, errorBody{Error: msg})
}

// httpErrorErr is httpError for error values: a *scenario.ValidationError
// anywhere in the chain contributes its field paths to the body.
func (s *Server) httpErrorErr(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	var verr *scenario.ValidationError
	if errors.As(err, &verr) {
		body.Fields = verr.Fields
	}
	s.writeError(w, code, body)
}

func (s *Server) writeError(w http.ResponseWriter, code int, body errorBody) {
	s.reg().Counter(fmt.Sprintf("serve.http_errors{code=%q}", strconv.Itoa(code))).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// retryAfterSecs renders the Retry-After hint (minimum 1s).
func (s *Server) retryAfterSecs() string {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// decodeSubmit reads and strictly decodes the request body. The limit
// reads one byte past the spec cap so an oversized body is detected as
// such rather than silently truncated into a JSON error.
func decodeSubmit(r *http.Request) (JobSpec, error) {
	buf, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		return JobSpec{}, fmt.Errorf("serve: reading job spec: %w", err)
	}
	return DecodeJobSpec(buf)
}

// submitHTTP maps Submit errors onto status codes; on success it returns
// the job and its disposition. A caller-supplied X-Trace-Id header (the
// coordinator's campaign hash) becomes the job's trace id.
func (s *Server) submitHTTP(w http.ResponseWriter, r *http.Request) (*job, string, bool) {
	spec, err := decodeSubmit(r)
	if err != nil {
		s.reg().Counter("serve.reject_invalid").Inc()
		s.httpErrorErr(w, http.StatusBadRequest, err)
		return nil, "", false
	}
	return s.submitSpec(w, r, spec)
}

// submitSpec submits a decoded spec and maps submission errors onto
// status codes.
func (s *Server) submitSpec(w http.ResponseWriter, r *http.Request, spec JobSpec) (*job, string, bool) {
	j, disp, err := s.submit(spec, r.Header.Get(TraceHeader))
	switch {
	case err == nil:
		return j, disp, true
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", s.retryAfterSecs())
		s.httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueClosed):
		w.Header().Set("Retry-After", s.retryAfterSecs())
		s.httpError(w, http.StatusTooManyRequests, err.Error())
	default:
		s.httpErrorErr(w, http.StatusBadRequest, err)
	}
	return nil, "", false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, disp, ok := s.submitHTTP(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disp)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.snapshot())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job id")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job id")
		return
	}
	j.cancel()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.snapshot())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job id")
		return
	}
	format, err := streamFormat(r, true)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveStream(w, r, j, format)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	format, err := streamFormat(r, false)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, disp, ok := s.submitHTTP(w, r)
	if !ok {
		return
	}
	w.Header().Set("X-Cache", disp)
	w.Header().Set("X-Job-ID", j.id)
	s.serveStream(w, r, j, format)
}

// handleScenario is run-and-stream for declarative scenarios: the body
// is the raw scenario spec itself (not a JobSpec envelope), job knobs
// ride the query string, and the response streams results exactly like
// POST /v1/run — same dedup, cache, binary/NDJSON negotiation and live
// follow. A validation failure answers with structured field paths.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	format, err := streamFormat(r, false)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	base, err := jobQuery(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("serve: reading scenario spec: %v", err))
		return
	}
	spec, err := ScenarioJobSpec(raw, base)
	if err != nil {
		s.reg().Counter("serve.reject_invalid").Inc()
		s.httpErrorErr(w, http.StatusBadRequest, err)
		return
	}
	j, disp, ok := s.submitSpec(w, r, spec)
	if !ok {
		return
	}
	w.Header().Set("X-Cache", disp)
	w.Header().Set("X-Job-ID", j.id)
	s.serveStream(w, r, j, format)
}

// jobQuery reads the JobSpec knobs POST /v1/scenario accepts as query
// parameters (the body being the scenario itself).
func jobQuery(r *http.Request) (JobSpec, error) {
	var spec JobSpec
	q := r.URL.Query()
	intParam := func(name string, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("serve: query %s=%q is not an integer", name, v)
		}
		*dst = n
		return nil
	}
	for name, dst := range map[string]*int{
		"trials":      &spec.Trials,
		"priority":    &spec.Priority,
		"point_start": &spec.PointStart,
		"point_count": &spec.PointCount,
	} {
		if err := intParam(name, dst); err != nil {
			return JobSpec{}, err
		}
	}
	if v := q.Get("seed_base"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return JobSpec{}, fmt.Errorf("serve: query seed_base=%q is not an unsigned integer", v)
		}
		spec.SeedBase = n
	}
	if v := q.Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return JobSpec{}, fmt.Errorf("serve: query timeout_ms=%q is not an integer", v)
		}
		spec.TimeoutMS = n
	}
	spec.Warmup = q.Get("warmup")
	return spec, nil
}

// serveStream writes job j's result stream in the negotiated format.
// Completed streams go out zero-copy: binary replays the sealed slab
// itself, NDJSON replays the per-cache-entry memoized transcode. Live
// streams flow from the broadcast buffer — through NDJSONWriter for
// NDJSON subscribers — so every consumer sees per-trial results as they
// land, and the response ends when the buffer is sealed.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, j *job, format string) {
	switch format {
	case FormatBinary:
		w.Header().Set("Content-Type", BinaryContentType)
		if slab, ok := j.buf.sealedBytes(); ok {
			s.writeSlab(w, slab)
			return
		}
		streamCopy(w, s.egress(w), j.buf.reader(r.Context()))
	case formatSSE:
		s.streamSSE(w, r, j)
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		if nd, ok := s.ndjsonSlab(j); ok {
			s.writeSlab(w, nd)
			return
		}
		streamCopy(w, campaign.NewNDJSONWriter(s.egress(w)), j.buf.reader(r.Context()))
	}
}

// ndjsonSlab returns the memoized NDJSON rendering of a completed,
// cached job's slab. Jobs that finished without entering the cache
// (timed-out trials, failures) fall back to the streaming transcoder.
func (s *Server) ndjsonSlab(j *job) ([]byte, bool) {
	c, ok := s.cache.get(j.key)
	if !ok || c.jobID != j.id {
		return nil, false
	}
	nd, err := c.ndjsonSlab()
	if err != nil {
		return nil, false
	}
	return nd, true
}

// writeSlab sends one completed stream in a single write, counting it
// in the same egress counter the streaming path feeds.
func (s *Server) writeSlab(w http.ResponseWriter, slab []byte) {
	if _, err := w.Write(slab); err != nil {
		return
	}
	s.reg().Counter("serve.stream_bytes").Add(int64(len(slab)))
}

// awaitTerminal blocks until j reaches a terminal state or ctx expires.
func awaitTerminal(ctx context.Context, j *job) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// aggregateJob renders a terminal job's columnar aggregate, memoized on
// the cache entry when the job's stream was cacheable.
func (s *Server) aggregateJob(j *job) (*Aggregate, error) {
	if c, ok := s.cache.get(j.key); ok && c.jobID == j.id {
		return c.aggregate()
	}
	slab, ok := j.buf.sealedBytes()
	if !ok {
		return nil, errors.New("serve: job stream not sealed")
	}
	return AggregateStream(slab)
}

// serveAggregate waits the job out and writes its aggregate (or maps
// the failure onto a status code).
func (s *Server) serveAggregate(w http.ResponseWriter, r *http.Request, j *job) {
	if err := awaitTerminal(r.Context(), j); err != nil {
		return // client went away; nothing sensible to write
	}
	if snap := j.snapshot(); snap.Status != StatusDone {
		s.httpError(w, http.StatusConflict,
			fmt.Sprintf("serve: job %s %s: %s", j.id, snap.Status, snap.Error))
		return
	}
	agg, err := s.aggregateJob(j)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(agg)
}

// handleAggregate is POST /v1/aggregate: submit (or join/hit) a spec and
// answer with its columnar aggregate instead of the trial stream —
// kilobytes of per-point success rates and latency histograms rather
// than the full replay.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	j, disp, ok := s.submitHTTP(w, r)
	if !ok {
		return
	}
	w.Header().Set("X-Cache", disp)
	w.Header().Set("X-Job-ID", j.id)
	s.serveAggregate(w, r, j)
}

// handleJobAggregate is GET /v1/jobs/{id}/aggregate.
func (s *Server) handleJobAggregate(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown job id")
		return
	}
	s.serveAggregate(w, r, j)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name    string   `json:"name"`
		Targets []string `json:"targets,omitempty"`
	}
	var out []entry
	for _, name := range s.cfg.Registry.Names() {
		e, _ := s.cfg.Registry.Lookup(name)
		out = append(out, entry{Name: e.Name, Targets: e.Targets})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", s.retryAfterSecs())
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the process's metrics snapshot: JSON by default,
// Prometheus text exposition with ?format=prom (or an Accept header
// preferring text/plain), so the same endpoint feeds both the fleet
// aggregator and scrape-based collectors.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := obs.WritePromText(w, s.cfg.Hub.Snapshot()); err != nil {
			s.log.Warn("prom exposition failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cfg.Hub.Snapshot())
}

// wantsProm reports whether a /metrics request asked for the text
// exposition format.
func wantsProm(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f == "prom" || f == "prometheus" {
		return true
	}
	return false
}

// handleSpans serves the recorded spans as JSON, optionally filtered to
// one trace id (?trace=...). The coordinator uses it to assemble the
// cross-process fleet trace.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	spans := s.cfg.Hub.Spans().Snapshot()
	if trace := r.URL.Query().Get("trace"); trace != "" {
		spans = obs.FilterTrace(spans, trace)
	}
	if spans == nil {
		spans = []obs.Span{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(spans)
}

// egress wraps a response so every byte sent is counted in
// serve.stream_bytes, making egress volume visible fleet-wide.
func (s *Server) egress(w io.Writer) io.Writer {
	return countingWriter{w, s.reg().Counter("serve.stream_bytes")}
}

type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// streamCopy copies a job's live stream from src into dst — the
// response itself or a rendering onto it — flushing w after each chunk
// so subscribers see per-trial results live. It returns at the
// stream's EOF, which the job's seal delivers, or on the first error.
func streamCopy(w http.ResponseWriter, dst io.Writer, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// sseEvents reframes each NDJSON line — NDJSONWriter writes one per
// Write — as a server-sent "result" event.
type sseEvents struct{ w io.Writer }

func (e sseEvents) Write(line []byte) (int, error) {
	if _, err := fmt.Fprintf(e.w, "event: result\ndata: %s\n\n", bytes.TrimSuffix(line, []byte("\n"))); err != nil {
		return 0, err
	}
	return len(line), nil
}

// streamSSE reframes the stream as server-sent events: one "result"
// event per NDJSON line, then a terminal "end" event.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	streamCopy(w, campaign.NewNDJSONWriter(sseEvents{w}), j.buf.reader(r.Context()))
	fmt.Fprint(w, "event: end\ndata: {}\n\n")
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}
