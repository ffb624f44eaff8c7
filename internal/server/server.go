// Package server implements the KTG query service: an HTTP/JSON API
// over the public ktg search surface with admission control (bounded
// worker pool + bounded wait queue), an LRU result cache with
// singleflight deduplication, per-request deadlines propagated into the
// search core as context cancellation, and graceful drain. All metrics
// land on the shared obs registry, so the standard -debug-addr surface
// and the server's own /metrics route expose them identically.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"ktg"
	"ktg/internal/obs"
)

const (
	kindQuery   = "query"
	kindDiverse = "diverse"
	kindPartial = "partial"
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// Workers caps concurrently running searches (default: GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker; beyond it requests
	// are rejected with 429 (default: 2×Workers). Negative means no
	// queue: reject as soon as all workers are busy.
	QueueDepth int
	// CacheSize caps cached complete results (default 256; negative
	// disables caching).
	CacheSize int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s). MaxTimeout is the ceiling any request can ask for
	// (default 2m); larger requests are clamped, not rejected.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DegradeQueueWait is the graceful-degradation threshold: an exact
	// /v1/query search that waited at least this long for a worker slot
	// (or whose wait consumed half its deadline) runs the greedy
	// algorithm instead and is answered with "degraded": true. Zero
	// applies the default (500ms); negative disables degradation.
	DegradeQueueWait time.Duration
	// Logger receives request logs; nil uses slog.Default.
	Logger *slog.Logger
	// Recorder captures completed /v1 requests for the flight-recorder
	// debug endpoints (/debug/requests, /debug/requests/slow,
	// /debug/inflight, /debug/search). nil creates a private recorder
	// with default sizing; ktgserver passes one sized by
	// -flight-recorder / -slow-query-ms and installs it as the obs
	// default so the -debug-addr surface serves the same data.
	Recorder *obs.FlightRecorder
	// TraceStore retains completed request traces (tail-sampled) for
	// the /debug/traces endpoints. nil falls back to the process-wide
	// obs.DefaultTraceStore, which stores nothing until installed —
	// trace IDs still propagate either way.
	TraceStore *obs.TraceStore
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DegradeQueueWait == 0 {
		c.DegradeQueueWait = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Recorder == nil {
		c.Recorder = obs.NewFlightRecorder(0, 0, 0, 0)
	}
	return c
}

// Dataset is one queryable network. Index is optional; when set it must
// be safe for concurrent readers (NL, NLRNL without mutation, PLL —
// see ktg.DistanceIndex). A nil Index falls back to a per-search BFS
// oracle.
//
// Live makes the dataset mutable: when set, every search resolves the
// live network's current epoch (an immutable network + index pair) at
// admission and POST /v1/edges publishes new epochs, while Network and
// Index describe the base (epoch 1) state and keep serving metadata.
// Live datasets stamp their epoch into every response.
type Dataset struct {
	Name    string
	Network *ktg.Network
	Index   ktg.DistanceIndex
	Live    *ktg.LiveNetwork
}

// view resolves the network + index + epoch a search should run on: the
// live network's current epoch for mutable datasets, the static pair
// (epoch 0, not stamped on responses) otherwise.
func (ds *Dataset) view() (*ktg.Network, ktg.DistanceIndex, uint64) {
	if ds.Live == nil {
		return ds.Network, ds.Index, 0
	}
	v := ds.Live.View()
	return v.Network, v.Index, v.Epoch
}

// Server is the KTG query service. Create one with New, mount
// Handler(), and call Drain before shutting the http.Server down.
type Server struct {
	cfg      Config
	datasets map[string]*Dataset
	names    []string
	adm      *admitter
	cache    *resultCache
	scope    *Scope
	draining atomic.Bool
}

// New builds a Server over the given datasets.
func New(cfg Config, datasets ...*Dataset) (*Server, error) {
	if len(datasets) == 0 {
		return nil, fmt.Errorf("server: at least one dataset is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		datasets: make(map[string]*Dataset, len(datasets)),
		adm:      newAdmitter(cfg.Workers, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheSize),
		scope:    NewScope("server", cfg.Logger, cfg.Recorder, cfg.TraceStore),
	}
	for _, ds := range datasets {
		if ds.Name == "" || ds.Network == nil {
			return nil, fmt.Errorf("server: dataset needs a name and a network")
		}
		if _, dup := s.datasets[ds.Name]; dup {
			return nil, fmt.Errorf("server: duplicate dataset %q", ds.Name)
		}
		s.datasets[ds.Name] = ds
		s.names = append(s.names, ds.Name)
	}
	sort.Strings(s.names)
	return s, nil
}

// Drain flips the server into shutdown mode: /readyz starts failing and
// new query requests are rejected with 503 so load balancers move on,
// while already-admitted searches run to completion. Call it before
// http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Workers and QueueDepth report the effective admission limits after
// defaulting (Config zero values mean "auto").
func (s *Server) Workers() int    { return s.cfg.Workers }
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// Handler returns the server's route tree:
//
//	POST /v1/query             exact / greedy KTG search
//	POST /v1/query/partial     one frontier slice of a scattered search (shard workers)
//	POST /v1/diverse           DKTG-Greedy diverse search
//	POST /v1/edges             apply an edge insert/delete batch (live datasets)
//	GET  /v1/datasets          served datasets and their stats
//	POST /v1/cache/invalidate  drop all cached results
//	GET  /healthz              liveness (always 200 while the process runs)
//	GET  /readyz               readiness (503 once draining)
//	GET  /metrics              the shared obs registry
//	GET  /debug/requests       flight recorder: recent completed requests
//	GET  /debug/requests/slow  slow-query log (top-K by latency)
//	GET  /debug/inflight       currently executing requests
//	GET  /debug/search         in-flight searches with live progress snapshots
//	GET  /debug/traces         tail-sampled trace store listing
//	GET  /debug/traces/{id}    one trace (JSON; ?format=waterfall for ASCII)
//
// Every request runs inside the shared request Scope: it is assigned a
// request ID (inbound X-Request-Id honored when well-formed, generated
// otherwise) that is echoed in the X-Request-Id response header and
// stamped on every log line the request produces. /v1/* requests
// additionally join the caller's W3C trace (traceparent header) or start
// their own; the trace ID is echoed as X-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/partial", s.handlePartial)
	mux.HandleFunc("POST /v1/diverse", s.handleDiverse)
	mux.HandleFunc("POST /v1/edges", s.handleEdges)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("POST /v1/cache/invalidate", s.handleInvalidate)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /debug/search", s.cfg.Recorder.SearchHandler())
	s.scope.Mount(mux)
	// Request scoping sits outermost so the recovery layer's panic log
	// already carries the request_id attribute.
	return s.scope.Wrap(s.withRecovery(mux))
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	body := map[string]any{"status": "ready"}
	// Durable datasets stamp their recovery outcome so an operator (or
	// the restart smoke) can confirm from the readiness probe alone that
	// the pre-crash epoch was republished.
	wal := make(map[string]*ktg.RecoveryStats)
	for _, name := range s.names {
		if ds := s.datasets[name]; ds.Live != nil && ds.Live.Recovery() != nil {
			wal[name] = ds.Live.Recovery()
		}
	}
	if len(wal) > 0 {
		body["wal"] = wal
	}
	WriteJSON(w, http.StatusOK, body)
}

// withRecovery converts handler panics into 500s so one poisoned
// request cannot take the whole process down. Search panics are already
// recovered inside runSearch (they must be, or singleflight waiters
// would hang on a leader that never completes); this outer layer covers
// everything else — encoding, auxiliary routes, future handlers.
// http.ErrAbortHandler is re-raised: it is net/http's own control flow
// for deliberately aborted responses, not a failure.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			mPanics.Inc()
			s.scope.Logger(r.Context()).Error("request handler panicked",
				"path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
			// Best effort: if the handler already started the response the
			// extra header write is a no-op on a hijacked/committed stream.
			Reject(w, r, &APIError{
				Status:  http.StatusInternalServerError,
				Code:    "internal_panic",
				Message: "internal error",
			})
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	mQueryRequests.Inc()
	s.serveSearch(w, r, kindQuery, mQueryLatency)
}

func (s *Server) handleDiverse(w http.ResponseWriter, r *http.Request) {
	mDiverseRequests.Inc()
	s.serveSearch(w, r, kindDiverse, mDiverseLatency)
}

// serveSearch is the request pipeline of every search endpoint. Its
// stages run in this order:
//
//  1. decode and validate the body
//  2. resolve the dataset
//  3. refuse new work while draining
//  4. answer from the result cache or join an identical in-flight
//     search; explain runs and partial slices bypass both
//  5. admission
//  6. the request deadline
//  7. probe registration and the search span
//  8. the core call
//  9. outcome, flight record and metrics
//  10. encode
//
// Stages 5 to 8 run in runSearch, the singleflight leader body. Along
// the way serveSearch fills the request's flight record (dataset,
// algorithm, params digest, queue wait, phases, stats, outcome) and
// feeds the dataset/algorithm-labeled latency and effort series.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, kind string, latency *obs.HistogramVec) {
	start := time.Now()
	dsLabel, algLabel := labelUnknown, labelUnknown
	defer func() { latency.With(dsLabel, algLabel).Observe(time.Since(start).Nanoseconds()) }()

	req, aerr := decodeRequest(r, kind)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	alg := req.Algorithm
	if alg == "" {
		alg = "vkc-deg"
	}
	ds, err := s.lookup(r.Context(), req.Dataset, alg)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	dsLabel, algLabel = ds.Name, alg
	span := obs.SpanFromContext(r.Context())
	span.SetAttr("algorithm", alg)

	var (
		resp        *QueryResponse
		slice       *ktg.PartialResult
		cacheStatus string
	)
	if kind == kindPartial {
		// Partial slices bypass the result cache and singleflight: a
		// slice is a coordinator-internal building block, and caching one
		// would let a stale shard poison every merged answer.
		span.SetAttr("slice", fmt.Sprintf("%d/%d", req.SliceIndex, req.SliceCount))
		resp, slice, err = s.runSearch(r.Context(), req, ds, kind)
	} else {
		resp, cacheStatus, err = s.cacheOrRun(r.Context(), req, ds, kind)
	}
	if err != nil {
		s.writeError(w, r, err)
		return
	}

	rec := RequestRecord(r.Context())
	rec.Stats, rec.Epoch = resp.Stats, resp.Epoch
	if cacheStatus == "hit" || cacheStatus == "shared" {
		rec.Outcome = obs.OutcomeCached
	} else {
		rec.Outcome = Outcome(resp.Degraded, resp.Partial)
		mSearchNodesSplit.With(dsLabel, algLabel).Add(resp.Stats.Nodes)
		mSearchChecksSplit.With(dsLabel, algLabel).Add(resp.Stats.DistanceChecks)
	}
	if kind == kindPartial {
		writePartial(w, req, resp, slice)
		return
	}
	s.writeResponse(w, resp, cacheStatus)
}

// cacheOrRun is stage 4 for /v1/query and /v1/diverse. It answers from
// the result cache, joins an identical in-flight search, or leads a new
// one; a hit or a shared answer never takes a worker slot. It returns
// the answer with its cache status: "hit", "shared", "miss", or
// "bypass" for an explain run.
func (s *Server) cacheOrRun(ctx context.Context, req *QueryRequest, ds *Dataset, kind string) (*QueryResponse, string, error) {
	span := obs.SpanFromContext(ctx)
	key := req.cacheKey(kind)
	RequestRecord(ctx).ParamsDigest = key[:16]

	// Explain runs bypass the result cache and the singleflight group
	// entirely: the plan must describe the execution that answered this
	// request, a cached or joined answer has no such execution, and
	// storing an explain-bearing response would leak one request's plan
	// to every later hit.
	if req.Explain {
		mExplainRequests.Inc()
		span.Event("cache.bypass", 0)
		resp, _, err := s.runSearch(ctx, req, ds, kind)
		return resp, "bypass", err
	}

	if resp, ok := s.cache.lookup(key); ok {
		mCacheHits.Inc()
		span.Event("cache.hit", 0)
		return resp, "hit", nil
	}
	leader := false
	meta := cacheMeta{dataset: ds.Name, kws: req.uniqKeywords()}
	resp, fromFlight, err := s.cache.do(ctx, key, meta, func() (*QueryResponse, error) {
		leader = true
		resp, _, err := s.runSearch(ctx, req, ds, kind)
		return resp, err
	})
	switch {
	case err == nil && fromFlight:
		// Joined an identical in-flight search (or a store that landed
		// while we waited) — no search of our own ran.
		mCacheShared.Inc()
		span.Event("cache.shared", 0)
		return resp, "shared", nil
	case err == nil:
		mCacheMisses.Inc()
		span.Event("cache.miss", 0)
	case leader:
		mCacheMisses.Inc()
	}
	return resp, "miss", err
}

// lookup resolves a request's dataset and refuses new work while the
// server drains: stages 2 and 3 of every admitted endpoint. algorithm
// is the request's normalized algorithm ("" for edge batches).
func (s *Server) lookup(ctx context.Context, name, algorithm string) (*Dataset, error) {
	ds, ok := s.datasets[name]
	if !ok {
		return nil, &APIError{
			Status:  http.StatusNotFound,
			Code:    "unknown_dataset",
			Message: fmt.Sprintf("unknown dataset %q (serving: %v)", name, s.names),
		}
	}
	s.scope.Annotate(ctx, ds.Name, algorithm)
	if s.draining.Load() {
		return nil, errDraining
	}
	obs.SpanFromContext(ctx).SetAttr("dataset", ds.Name)
	return ds, nil
}

// errDraining refuses new work once Drain has been called.
var errDraining = &APIError{
	Status:  http.StatusServiceUnavailable,
	Code:    "draining",
	Message: "server is shutting down",
}

// admit takes a worker slot (stage 5), waiting no longer than ctx
// allows, and records the wait on the flight record and as the request's
// queue.wait span. On success the caller must release the slot.
func (s *Server) admit(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	wait, err := s.adm.acquire(ctx)
	if err != nil {
		return 0, err
	}
	RequestRecord(ctx).QueueWait = wait
	obs.SpanFromContext(ctx).AddCompletedChild("queue.wait", start, wait,
		obs.Attr{Key: "wait_ns", Value: strconv.FormatInt(wait.Nanoseconds(), 10)})
	return wait, nil
}

// Timeout is a request's deadline: its timeout_ms when set, else def,
// never more than max. Every deadline on both front ends comes from it.
func Timeout(timeoutMillis int64, def, max time.Duration) time.Duration {
	timeout := def
	if timeoutMillis > 0 {
		// Clamp before converting: the product overflows past ~9.2e12 ms.
		timeout = max
		if timeoutMillis <= max.Milliseconds() {
			timeout = time.Duration(timeoutMillis) * time.Millisecond
		}
	}
	return min(timeout, max)
}

// testSearchHook, when non-nil, runs inside runSearch after admission
// and before the search core. Tests use it to inject panics and
// latency; production never sets it.
var testSearchHook func(kind string, req *QueryRequest)

// runSearch executes one search, stages 5 to 8: admission, the deadline,
// the probe and search span, and the core call. It returns the answer,
// plus the slice's merge stream for a partial search, or an error for
// outcomes that cannot produce an answer at all.
//
// runSearch is the singleflight leader body, so a panic here must be
// recovered *here*: letting it unwind through cache.do would leave the
// flight's done channel forever open and hang every request that joined
// it. The recover converts the panic into a plain 500 error, and the
// deferred release (registered after acquire, so it runs first) still
// returns the worker slot.
func (s *Server) runSearch(reqCtx context.Context, req *QueryRequest, ds *Dataset, kind string) (resp *QueryResponse, slice *ktg.PartialResult, err error) {
	logger := s.scope.Logger(reqCtx)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		mPanics.Inc()
		logger.Error("search panicked",
			"dataset", req.Dataset, "kind", kind, "panic", rec, "stack", string(debug.Stack()))
		resp, slice = nil, nil
		err = &APIError{
			Status:  http.StatusInternalServerError,
			Code:    "internal_panic",
			Message: "internal error while executing the search",
		}
	}()

	// The admission wait is bounded by the request context alone; the
	// search deadline starts once a worker slot is held.
	wait, err := s.admit(reqCtx)
	if err != nil {
		return nil, nil, err
	}
	defer s.adm.release()
	timeout := Timeout(req.TimeoutMillis, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	ctx, cancel := context.WithTimeout(reqCtx, timeout)
	defer cancel()

	// Every admitted search carries a probe: it feeds the /debug/search
	// view of the in-flight table, the improvement-time histograms, and
	// — when the request asked — the explain block. When nobody looks,
	// the probe costs the hot path one branch and counter bump per node.
	reqRec := RequestRecord(reqCtx)
	probe := &ktg.Probe{}
	s.cfg.Recorder.SetProgress(reqRec.ID, func() any { return probe.Snapshot() })
	defer s.cfg.Recorder.SetProgress(reqRec.ID, nil)

	// The search child span wraps the whole library call, which hangs
	// the compile/candidates/explore children off it via ctx. Its
	// counters come from the answer's Stats; the probe adds only what
	// Stats does not hold (final bound, roots explored, frontier size),
	// so pruning efficacy shows on the waterfall without an explain
	// request.
	ctx, searchSpan := obs.StartChild(ctx, "search."+kind)
	defer func() {
		if searchSpan == nil {
			return
		}
		if err != nil {
			searchSpan.SetError(err.Error())
		}
		if resp != nil {
			searchSpan.SetAttr("algorithm", resp.Algorithm)
			searchSpan.SetAttr("nodes", strconv.FormatInt(resp.Stats.Nodes, 10))
			searchSpan.SetAttr("pruned", strconv.FormatInt(resp.Stats.Pruned, 10))
			searchSpan.SetAttr("filtered", strconv.FormatInt(resp.Stats.Filtered, 10))
			searchSpan.SetAttr("distance_checks", strconv.FormatInt(resp.Stats.DistanceChecks, 10))
		}
		if slice != nil {
			searchSpan.SetAttr("offers", strconv.Itoa(len(slice.Offers)))
		}
		pe := probe.Explain()
		searchSpan.SetAttr("final_threshold", strconv.Itoa(pe.FinalThresh))
		searchSpan.SetAttr("roots_explored", strconv.FormatInt(pe.RootsExplored, 10))
		searchSpan.SetAttr("frontier_size", strconv.Itoa(pe.FrontierSize))
		searchSpan.End()
	}()

	// Graceful degradation: a long queue wait means the server is
	// saturated — spending a full exact search per request now only
	// deepens the backlog. Downgrade exact /v1/query searches to the
	// greedy algorithm so the queue drains; the response says so via
	// "degraded": true and is never cached (a later idle server should
	// serve the exact answer).
	degradedReason := ""
	if kind == kindQuery && req.Algorithm != "greedy" && s.cfg.DegradeQueueWait > 0 {
		switch {
		case wait >= s.cfg.DegradeQueueWait:
			degradedReason = "queue_wait"
		case wait > 0 && 2*wait >= timeout:
			degradedReason = "deadline_pressure"
		}
	}

	if testSearchHook != nil {
		testSearchHook(kind, req)
	}

	// Resolve the epoch once, after admission: the network + index pair
	// is immutable, so the whole search sees one consistent topology
	// even while mutations publish later epochs concurrently.
	nw, idx, epoch := ds.view()
	reqRec.Epoch = epoch
	if epoch != 0 {
		obs.SpanFromContext(reqCtx).SetAttr("epoch", strconv.FormatUint(epoch, 10))
	}

	q := ktg.Query{
		Keywords:  req.Keywords,
		GroupSize: req.GroupSize,
		Tenuity:   req.Tenuity,
		TopN:      req.TopN,
	}
	// The request-scoped logger makes the search's lines carry request_id.
	opts := ktg.SearchOptions{
		Algorithm: wireAlgorithms[req.Algorithm],
		Index:     idx,
		MaxNodes:  req.MaxNodes,
		Context:   ctx,
		Logger:    logger,
		Probe:     probe,
	}

	resp = &QueryResponse{Dataset: ds.Name, Algorithm: req.Algorithm, Epoch: epoch}
	if resp.Algorithm == "" {
		resp.Algorithm = "vkc-deg"
	}
	if degradedReason != "" {
		mDegraded.Inc()
		resp.Algorithm = "greedy"
		resp.Degraded = true
		resp.DegradedReason = degradedReason
		obs.SpanFromContext(reqCtx).Event("degrade."+degradedReason, wait.Nanoseconds())
		logger.Warn("degrading exact search to greedy",
			"dataset", req.Dataset, "reason", degradedReason, "queue_wait", wait)
	}
	var res *ktg.Result
	switch {
	case kind == kindDiverse:
		gamma := 0.5
		if req.Gamma != nil {
			gamma = *req.Gamma
		}
		var dr *ktg.DiverseResult
		dr, err = nw.SearchDiverse(q, ktg.DiverseOptions{SearchOptions: opts, Gamma: gamma})
		if dr != nil {
			res = &ktg.Result{Groups: dr.Groups, Stats: dr.Stats}
			resp.Diversity = &dr.Diversity
			resp.MinQKC = &dr.MinQKC
			resp.Score = &dr.Score
		}
	case kind == kindPartial:
		slice, err = nw.SearchPartial(q, opts, ktg.CandidateSlice{Index: req.SliceIndex, Count: req.SliceCount})
		if slice != nil {
			res = &ktg.Result{Groups: slice.Groups, Stats: slice.Stats}
		}
	case req.Algorithm == "greedy" || degradedReason != "":
		res, err = nw.SearchGreedyWith(q, opts, req.Seeds)
	default:
		res, err = nw.Search(q, opts)
	}

	if res == nil {
		// Validation failures inside the core; our own validation should
		// make this unreachable, so surface it as a 400 with the core's
		// message rather than masking it.
		return nil, nil, badRequest("invalid_query", "%v", err)
	}
	reqRec.Phases = obs.Phases(res.Stats.CompileTime, res.Stats.CandidateTime, res.Stats.ExploreTime)
	if reqCtx.Err() != nil {
		// The client went away (or shutdown force-cancelled the base
		// context) mid-search: there is nobody to answer. writeError
		// counts this under ktg_server_cancelled_total.
		return nil, nil, reqCtx.Err()
	}
	resp.Groups = append([]ktg.Group{}, res.Groups...) // [] when empty, not null
	resp.Stats = res.Stats
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		resp.Partial, resp.PartialReason = true, "deadline"
	case errors.Is(err, ktg.ErrBudgetExhausted):
		resp.Partial, resp.PartialReason = true, "budget"
	default:
		return nil, nil, fmt.Errorf("search failed: %w", err)
	}
	if resp.Partial {
		mPartial.Inc()
	}
	pe := probe.Explain()
	if pe.TimeToFirstNS > 0 {
		mFirstResultNS.Observe(pe.TimeToFirstNS)
		mFinalImprovementNS.Observe(pe.TimeToFinalNS)
	}
	if req.Explain {
		pe.Algorithm = resp.Algorithm
		pe.Epoch = epoch
		resp.Explain = pe
	}
	return resp, slice, nil
}

// DatasetList is the JSON body of GET /v1/datasets.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// DatasetInfo is one served dataset in the listing. Epoch is omitted
// for a static dataset.
type DatasetInfo struct {
	Name       string             `json:"name"`
	Vertices   int                `json:"vertices"`
	Edges      int                `json:"edges"`
	Vocabulary int                `json:"vocabulary"`
	Index      string             `json:"index"`
	Mutable    bool               `json:"mutable,omitempty"`
	Epoch      uint64             `json:"epoch,omitempty"`
	Durable    bool               `json:"durable,omitempty"`
	WAL        *ktg.RecoveryStats `json:"wal,omitempty"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	mDatasetsRequests.Inc()
	start := time.Now()
	defer func() { mDatasetsLatency.Observe(time.Since(start).Nanoseconds()) }()
	out := DatasetList{Datasets: make([]DatasetInfo, 0, len(s.names))}
	for _, name := range s.names {
		ds := s.datasets[name]
		// Edge/epoch figures come from the current live view so they track
		// applied mutations rather than the boot-time snapshot.
		nw, idx, epoch := ds.view()
		d := DatasetInfo{
			Name:       name,
			Vertices:   nw.NumVertices(),
			Edges:      nw.NumEdges(),
			Vocabulary: nw.VocabularySize(),
			Index:      "BFS",
			Mutable:    ds.Live != nil,
			Epoch:      epoch,
		}
		if idx != nil {
			d.Index = idx.Name()
		}
		if ds.Live != nil {
			d.Durable = ds.Live.Durable()
			d.WAL = ds.Live.Recovery()
		}
		out.Datasets = append(out.Datasets, d)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	n := s.cache.invalidate()
	s.scope.Logger(r.Context()).Info("result cache invalidated", "entries", n)
	WriteJSON(w, http.StatusOK, map[string]any{"invalidated": n})
}

// writeResponse stamps the per-request cache status onto a copy of the
// (possibly shared) response and encodes it.
func (s *Server) writeResponse(w http.ResponseWriter, resp *QueryResponse, cacheStatus string) {
	out := *resp
	out.Cache = cacheStatus
	w.Header().Set("X-KTG-Cache", cacheStatus)
	WriteJSON(w, http.StatusOK, &out)
}

// writeError answers a request the pipeline cannot serve: it maps err
// onto its wire error and rejection counter, then rejects the request
// through Reject, which records the error on the flight record.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var aerr *APIError
	switch {
	case errors.Is(err, errDraining):
		mRejectDraining.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(true)))
		aerr = errDraining
	case errors.As(err, &aerr):
		if aerr.Status < 500 {
			mRejectInvalid.Inc()
		}
	case errors.Is(err, errOverloaded):
		mRejectOverload.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(false)))
		aerr = &APIError{
			Status:  http.StatusTooManyRequests,
			Code:    "overloaded",
			Message: "all workers busy and the wait queue is full; retry shortly",
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status code is for logs only.
		mCancelled.Inc()
		s.scope.Logger(r.Context()).Info("request abandoned by client", "path", r.URL.Path)
		aerr = &APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    "client_gone",
			Message: "request context cancelled before a result was ready",
		}
	default:
		s.scope.Logger(r.Context()).Error("query failed", "path", r.URL.Path, "err", err)
		aerr = &APIError{
			Status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: err.Error(),
		}
	}
	Reject(w, r, aerr)
}

// WriteAPIError and WriteJSON are the server's wire encoding (status
// mapping, {"error": {...}} envelope, indented JSON); the shard
// coordinator answers through them so it is byte-compatible with a
// single-node server.
func WriteAPIError(w http.ResponseWriter, aerr *APIError) {
	WriteJSON(w, aerr.Status, map[string]any{"error": aerr})
}

// WriteJSON encodes v with the given status exactly as every handler
// does.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
