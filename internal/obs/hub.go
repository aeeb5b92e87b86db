package obs

import "sort"

// Hub bundles the per-run metrics registry, forensics ledger and span
// log. A nil *Hub is valid everywhere a Hub is plumbed: Reg(), Led() and
// Spans() return nil receivers whose methods are no-ops, so instrumented
// layers never need an observability-enabled check.
type Hub struct {
	Registry *Registry
	Ledger   *Ledger
	SpanLog  *SpanLog
}

// NewHub returns a hub with a fresh registry, ledger and span log.
func NewHub() *Hub {
	return &Hub{Registry: NewRegistry(), Ledger: NewLedger(), SpanLog: NewSpanLog(0)}
}

// Reg returns the registry (nil when the hub is nil).
func (h *Hub) Reg() *Registry {
	if h == nil {
		return nil
	}
	return h.Registry
}

// Led returns the ledger (nil when the hub is nil).
func (h *Hub) Led() *Ledger {
	if h == nil {
		return nil
	}
	return h.Ledger
}

// Spans returns the span log (nil when the hub is nil).
func (h *Hub) Spans() *SpanLog {
	if h == nil {
		return nil
	}
	return h.SpanLog
}

// Snapshot captures the registry (empty snapshot when the hub is nil).
func (h *Hub) Snapshot() *Snapshot { return h.Reg().Snapshot() }

// Bucket layouts of the per-attempt injection histograms, built once:
// every attempt names its histograms, and Registry.Histogram only reads
// the layout when it creates one (newHistogram copies it, so no restore
// or sort ever writes to these).
var (
	leadBuckets     = LinearBuckets(2, 2, 25)
	wideningBuckets = LinearBuckets(2, 2, 25)
	marginBuckets   = LinearBuckets(-10, 5, 30)
	sinrBuckets     = LinearBuckets(-30, 2, 31)
)

// BeginAttempt opens a forensics entry for an injection attempt.
func (h *Hub) BeginAttempt(s AttemptStart) {
	if h == nil {
		return
	}
	h.Ledger.BeginAttempt(s)
	h.Registry.Histogram("inject.lead_us", leadBuckets).Observe(dus(s.Lead))
	h.Registry.Histogram("inject.widening_est_us", wideningBuckets).Observe(dus(s.WideningEst))
}

// EndAttempt closes the forensics entry and folds the attempt into the
// injection metrics (attempts, hits, per-reason misses, timing margin,
// SINR). anchorJitterUS is the sniffer's smoothed master anchor jitter.
func (h *Hub) EndAttempt(end AttemptEnd, anchorJitterUS float64) *InjectionRecord {
	if h == nil {
		return nil
	}
	rec := h.Ledger.EndAttempt(end)
	r := h.Registry
	r.Counter("inject.attempts").Inc()
	r.Gauge("inject.anchor_jitter_ewma_us").Set(anchorJitterUS)
	if rec == nil {
		return nil
	}
	if rec.Outcome == "success" {
		r.Counter("inject.hits").Inc()
	} else {
		r.Counter("inject.miss." + rec.MissReason).Inc()
	}
	if rec.WindowSeen {
		r.Histogram("inject.margin_us", marginBuckets).Observe(rec.TimingMarginUS)
	}
	if rec.MasterSeen {
		r.Histogram("inject.sinr_db", sinrBuckets).Observe(rec.SINRdB)
	}
	return rec
}

// AbortAttempt closes a dangling entry (connection lost mid-race).
func (h *Hub) AbortAttempt(outcome string) {
	if h == nil {
		return
	}
	h.Ledger.Abort(outcome)
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
