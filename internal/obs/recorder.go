package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request outcomes recorded by the flight recorder. Exactly one applies
// per request; when several could, the most severe wins
// (error > degraded > partial > cached > ok).
const (
	OutcomeOK       = "ok"
	OutcomePartial  = "partial"
	OutcomeDegraded = "degraded"
	OutcomeCached   = "cached"
	OutcomeError    = "error"
)

// SpanRecord is one timed phase of a request. The JSON tags are stable:
// flight-recorder records list a search's phases in this shape.
type SpanRecord struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"duration_ns"`
}

// RequestRecord is one completed request as seen by the flight
// recorder: identity, routing, cost breakdown, and outcome. Stats is
// deliberately untyped (obs sits below the packages that define search
// statistics); it must marshal cleanly to JSON.
type RequestRecord struct {
	ID string `json:"id"`
	// TraceID deep-links the record to its stored trace
	// (/debug/traces/{trace_id}); empty when tracing was off.
	TraceID      string `json:"trace_id,omitempty"`
	Endpoint     string `json:"endpoint"`
	Dataset      string `json:"dataset,omitempty"`
	Algorithm    string `json:"algorithm,omitempty"`
	ParamsDigest string `json:"params_digest,omitempty"`
	// Epoch is the dataset epoch the request was answered from (live
	// datasets only; 0 = static dataset or not applicable).
	Epoch     uint64        `json:"epoch,omitempty"`
	Start     time.Time     `json:"start"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Duration  time.Duration `json:"duration_ns"`
	Phases    []SpanRecord  `json:"phases,omitempty"`
	Stats     any           `json:"stats,omitempty"`
	Outcome   string        `json:"outcome"`
	Status    int           `json:"status,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// InflightRecord is one currently-executing request. The struct is
// immutable after Begin except for Dataset/Algorithm and the progress
// source, which are only mutated under the recorder lock; ElapsedNS is
// computed at render time.
type InflightRecord struct {
	ID        string    `json:"id"`
	Endpoint  string    `json:"endpoint"`
	Dataset   string    `json:"dataset,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	Start     time.Time `json:"start"`
	ElapsedNS int64     `json:"elapsed_ns"`
	// progress returns the running search's latest self-published
	// snapshot (untyped: obs sits below the search core; it must marshal
	// cleanly to JSON). Only rows with a progress source are searches.
	progress func() any
}

// SearchRecord is an in-flight request whose search is running: its
// in-flight row plus the progress snapshot resolved at render time.
type SearchRecord struct {
	InflightRecord
	Progress any `json:"progress"`
}

// Flight-recorder sizing defaults, applied by NewFlightRecorder for
// zero-valued parameters.
const (
	DefaultRingSize      = 256
	DefaultSlowK         = 32
	DefaultSlowThreshold = 250 * time.Millisecond
	DefaultSlowWindow    = 15 * time.Minute
)

// FlightRecorder retains recent completed requests in a bounded ring, a
// separate always-retained slow-query log (top-K by latency over a
// sliding window), and a table of requests currently in flight, whose
// rows with a running search double as the live search view. All
// methods are safe for concurrent use; Record is O(ring insert +
// top-K insert) under one short mutex hold, cheap next to the request
// it describes.
type FlightRecorder struct {
	mu            sync.Mutex
	ring          []RequestRecord // fixed capacity, next points at the oldest slot
	next          int
	filled        int
	total         uint64
	slow          []RequestRecord // descending by Duration, len <= slowK
	slowK         int
	slowThreshold time.Duration
	slowWindow    time.Duration
	inflight      map[string]*InflightRecord
}

// NewFlightRecorder builds a recorder. ringSize is the recent-request
// ring capacity (0 = DefaultRingSize, negative disables the ring);
// slowK bounds the slow-query log (0 = DefaultSlowK); slowThreshold is
// the latency at or above which a request enters the slow log (0 =
// DefaultSlowThreshold, negative disables the slow log); slowWindow is
// how long slow entries are retained (0 = DefaultSlowWindow).
func NewFlightRecorder(ringSize, slowK int, slowThreshold, slowWindow time.Duration) *FlightRecorder {
	if ringSize == 0 {
		ringSize = DefaultRingSize
	}
	if ringSize < 0 {
		ringSize = 0
	}
	if slowK <= 0 {
		slowK = DefaultSlowK
	}
	if slowThreshold == 0 {
		slowThreshold = DefaultSlowThreshold
	}
	if slowWindow <= 0 {
		slowWindow = DefaultSlowWindow
	}
	return &FlightRecorder{
		ring:          make([]RequestRecord, ringSize),
		slowK:         slowK,
		slowThreshold: slowThreshold,
		slowWindow:    slowWindow,
		inflight:      make(map[string]*InflightRecord),
	}
}

// SlowThreshold returns the latency at or above which a request counts
// as slow (non-positive when the slow log is disabled).
func (f *FlightRecorder) SlowThreshold() time.Duration { return f.slowThreshold }

// Begin registers a request in the in-flight table and returns a
// function that removes it again. The returned func is idempotent and
// must be called exactly when the request finishes (deferred by the
// serving middleware, so it runs on panics too).
func (f *FlightRecorder) Begin(id, endpoint string, start time.Time) func() {
	rec := &InflightRecord{ID: id, Endpoint: endpoint, Start: start}
	f.mu.Lock()
	f.inflight[id] = rec
	f.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			delete(f.inflight, id)
			f.mu.Unlock()
		})
	}
}

// Annotate attaches the dataset and algorithm to an in-flight entry
// once request decoding has resolved them.
func (f *FlightRecorder) Annotate(id, dataset, algorithm string) {
	f.mu.Lock()
	if rec, ok := f.inflight[id]; ok {
		rec.Dataset, rec.Algorithm = dataset, algorithm
	}
	f.mu.Unlock()
}

// SetProgress attaches a live-progress source to an in-flight request,
// which puts the request on the search view; nil detaches it again.
// Progress is pulled only when the view is rendered, so attaching it
// adds nothing to the search path.
func (f *FlightRecorder) SetProgress(id string, progress func() any) {
	f.mu.Lock()
	if rec, ok := f.inflight[id]; ok {
		rec.progress = progress
	}
	f.mu.Unlock()
}

// Record folds one completed request into the ring and, when its
// duration clears the threshold, into the slow-query log.
func (f *FlightRecorder) Record(rec RequestRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	if len(f.ring) > 0 {
		f.ring[f.next] = rec
		f.next = (f.next + 1) % len(f.ring)
		if f.filled < len(f.ring) {
			f.filled++
		}
	}
	if f.slowThreshold > 0 && rec.Duration >= f.slowThreshold {
		f.pruneSlowLocked(rec.Start.Add(rec.Duration))
		// Insert keeping descending-duration order; drop the tail past K.
		i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].Duration < rec.Duration })
		f.slow = append(f.slow, RequestRecord{})
		copy(f.slow[i+1:], f.slow[i:])
		f.slow[i] = rec
		if len(f.slow) > f.slowK {
			f.slow = f.slow[:f.slowK]
		}
	}
}

// pruneSlowLocked drops slow entries that finished before now-window.
func (f *FlightRecorder) pruneSlowLocked(now time.Time) {
	cutoff := now.Add(-f.slowWindow)
	kept := f.slow[:0]
	for _, r := range f.slow {
		if r.Start.Add(r.Duration).After(cutoff) {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(f.slow); i++ {
		f.slow[i] = RequestRecord{}
	}
	f.slow = kept
}

// Recent returns up to limit completed requests, most recent first
// (limit <= 0 means all retained), plus the total number of requests
// ever recorded.
func (f *FlightRecorder) Recent(limit int) ([]RequestRecord, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.filled
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]RequestRecord, 0, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest slot; walk backwards.
		idx := (f.next - 1 - i + len(f.ring)) % len(f.ring)
		out = append(out, f.ring[idx])
	}
	return out, f.total
}

// Slow returns the slow-query log: the top-K slowest requests inside
// the sliding window, slowest first.
func (f *FlightRecorder) Slow() []RequestRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pruneSlowLocked(time.Now())
	return append([]RequestRecord(nil), f.slow...)
}

// Inflight returns the currently executing requests, oldest first, with
// ElapsedNS stamped relative to now.
func (f *FlightRecorder) Inflight() []InflightRecord {
	now := time.Now()
	f.mu.Lock()
	out := make([]InflightRecord, 0, len(f.inflight))
	for _, rec := range f.inflight {
		r := *rec
		r.ElapsedNS = now.Sub(r.Start).Nanoseconds()
		out = append(out, r)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Searches returns the in-flight requests that carry a progress source,
// oldest first, with their progress snapshots resolved now.
func (f *FlightRecorder) Searches() []SearchRecord {
	out := make([]SearchRecord, 0)
	for _, r := range f.Inflight() {
		if r.progress != nil {
			out = append(out, SearchRecord{InflightRecord: r, Progress: r.progress()})
		}
	}
	return out
}

// RecentHandler serves the recent-request ring as JSON
// ({"total": N, "records": [...]}), newest first. ?limit=N bounds the
// response.
func (f *FlightRecorder) RecentHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				limit = n
			}
		}
		records, total := f.Recent(limit)
		writeDebugJSON(w, map[string]any{"total": total, "records": records})
	})
}

// SlowHandler serves the slow-query log as JSON, slowest first.
func (f *FlightRecorder) SlowHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeDebugJSON(w, map[string]any{
			"threshold_ns": f.slowThreshold.Nanoseconds(),
			"window_ns":    f.slowWindow.Nanoseconds(),
			"records":      f.Slow(),
		})
	})
}

// InflightHandler serves the in-flight table as JSON, oldest first.
func (f *FlightRecorder) InflightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeDebugJSON(w, map[string]any{"inflight": f.Inflight()})
	})
}

// SearchHandler serves the search view as JSON ({"searches": [...]}),
// oldest first.
func (f *FlightRecorder) SearchHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeDebugJSON(w, map[string]any{"searches": f.Searches()})
	})
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// defaultRecorder is the process-wide flight recorder served by
// DebugMux, analogous to the default metric registry. It is created
// lazily with default sizing unless SetDefaultRecorder installed a
// configured one first.
var defaultRecorder atomic.Pointer[FlightRecorder]

// DefaultRecorder returns the process-wide flight recorder, creating a
// default-sized one on first use.
func DefaultRecorder() *FlightRecorder {
	if f := defaultRecorder.Load(); f != nil {
		return f
	}
	f := NewFlightRecorder(0, 0, 0, 0)
	if defaultRecorder.CompareAndSwap(nil, f) {
		return f
	}
	return defaultRecorder.Load()
}

// SetDefaultRecorder installs f as the process-wide flight recorder
// (e.g. one sized by ktgserver's flags) so the -debug-addr surface and
// the server's embedded /debug routes expose the same data. nil is
// ignored.
func SetDefaultRecorder(f *FlightRecorder) {
	if f != nil {
		defaultRecorder.Store(f)
	}
}
