// Package shard implements scatter-gather distributed serving for the
// KTG query service. A Coordinator fronts N shard workers — ordinary
// ktgserver processes, each holding a full copy of the datasets — and
// answers the same /v1 surface as a single server: exact branch-and-
// bound queries are partitioned into frontier slices (one POST
// /v1/query/partial per shard), gathered through the resilient
// internal/client pipeline (retries, per-shard circuit breakers,
// optional hedging), and merged with ktg.MergePartials, which replays
// the shards' offer streams in deterministic order so a complete
// partition reproduces the single-node answer byte for byte.
//
// Degradation is explicit, never silent: when a shard dies or a slice
// is truncated, the coordinator still answers 200 with the best merged
// groups but flags the response with "partial": true and a non-zero
// "shards_failed" — a wrong-looking-complete answer is the one outcome
// the design rules out. Only when every shard fails does the query
// error (503). Greedy, brute-force, and diverse searches do not
// decompose into mergeable slices; they are forwarded whole to one
// shard with failover.
package shard

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
)

// Config tunes a Coordinator. Shards is required; everything else has
// the defaults documented per field.
type Config struct {
	// Shards lists the shard-worker base URLs, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. Every shard must
	// serve identical datasets; the merge detects (and rejects)
	// disagreeing shards rather than combining them.
	Shards []string
	// Client is the template for the per-shard resilient clients;
	// BaseURL is overwritten per shard. The zero value applies the
	// client package defaults.
	Client client.Config
	// MaxKeywords / MaxGroupSize / MaxTopN bound request shape exactly
	// like a single-node server (defaults 64 / 16 / 100).
	MaxKeywords  int
	MaxGroupSize int
	MaxTopN      int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s); MaxTimeout is the ceiling (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Logger receives request logs; nil uses slog.Default.
	Logger *slog.Logger
	// Recorder captures completed requests for /debug/requests*; nil
	// creates a private recorder with default sizing.
	Recorder *obs.FlightRecorder
	// TraceStore retains completed coordinator traces for /debug/traces;
	// nil falls back to the process-wide default store.
	TraceStore *obs.TraceStore
}

func (c Config) withDefaults() Config {
	if c.MaxKeywords <= 0 {
		c.MaxKeywords = 64
	}
	if c.MaxGroupSize <= 0 {
		c.MaxGroupSize = 16
	}
	if c.MaxTopN <= 0 {
		c.MaxTopN = 100
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Recorder == nil {
		c.Recorder = obs.NewFlightRecorder(0, 0, 0, 0)
	}
	return c
}

// shardConn is one shard worker: its base URL plus the resilient client
// (own breaker, retry budget, stats) that all calls to it go through.
type shardConn struct {
	base string
	c    *client.Client
}

// Coordinator fronts the shard fleet. Create with New, mount Handler,
// call Drain before shutting the http.Server down.
type Coordinator struct {
	cfg      Config
	shards   []*shardConn
	recorder *obs.FlightRecorder
	draining atomic.Bool
	// rr rotates the starting shard for forwarded (non-scattered)
	// queries so one shard does not absorb all greedy/diverse traffic.
	rr atomic.Uint64
}

// New builds a Coordinator over the given shard fleet.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: at least one shard URL is required")
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{cfg: cfg, recorder: cfg.Recorder}
	seen := make(map[string]bool, len(cfg.Shards))
	for i, raw := range cfg.Shards {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" {
			return nil, fmt.Errorf("shard: shard %d has an empty URL", i)
		}
		if seen[base] {
			return nil, fmt.Errorf("shard: duplicate shard URL %q", base)
		}
		seen[base] = true
		ccfg := cfg.Client
		ccfg.BaseURL = base
		if ccfg.Logger == nil {
			ccfg.Logger = cfg.Logger
		}
		if ccfg.Seed != 0 {
			// Decorrelate per-shard jitter while keeping determinism for
			// tests that pin a seed.
			ccfg.Seed += int64(i)
		}
		cl, err := client.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("shard: building client for %q: %w", base, err)
		}
		co.shards = append(co.shards, &shardConn{base: base, c: cl})
	}
	return co, nil
}

// Drain flips the coordinator into shutdown mode: /readyz fails and new
// queries are rejected with 503 while in-flight scatters finish.
func (co *Coordinator) Drain() { co.draining.Store(true) }

// Draining reports whether Drain has been called.
func (co *Coordinator) Draining() bool { return co.draining.Load() }

// Shards reports the normalized shard base URLs in configuration order.
func (co *Coordinator) Shards() []string {
	out := make([]string, len(co.shards))
	for i, sh := range co.shards {
		out[i] = sh.base
	}
	return out
}

// traceStore resolves the store serving /debug/traces (may be nil).
func (co *Coordinator) traceStore() *obs.TraceStore {
	if co.cfg.TraceStore != nil {
		return co.cfg.TraceStore
	}
	return obs.DefaultTraceStore()
}

// Handler returns the coordinator's route tree — the single-node /v1
// surface plus the fleet-status endpoint:
//
//	POST /v1/query             scatter-gather KTG search (greedy/brute forwarded)
//	POST /v1/diverse           DKTG diverse search, forwarded with failover
//	POST /v1/edges             edge batch fanned out to every shard (all-or-retry)
//	GET  /v1/datasets          forwarded from the first answering shard
//	GET  /v1/shards            per-shard health, breaker state, epochs, and client stats
//	POST /v1/cache/invalidate  fanned out to every shard
//	GET  /healthz, /readyz     liveness / readiness (readyz fails while draining)
//	GET  /metrics              the shared obs registry (ktg_coord_* and ktg_client_*)
//	GET  /debug/requests[...]  flight recorder, as on a single-node server
//	GET  /debug/search         fleet-wide in-flight searches (each shard's table, tagged by shard)
//	GET  /debug/traces[/{id}]  tail-sampled coordinator trace store
//
// Requests carry the same X-Request-Id / X-Trace-Id contract as a
// single-node server; shard calls propagate the trace via traceparent,
// so one trace spans the coordinator and every shard it touched.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", co.handleQuery)
	mux.HandleFunc("POST /v1/diverse", co.handleDiverse)
	mux.HandleFunc("POST /v1/edges", co.handleEdges)
	mux.HandleFunc("GET /v1/datasets", co.handleDatasets)
	mux.HandleFunc("GET /v1/shards", co.handleShards)
	mux.HandleFunc("POST /v1/cache/invalidate", co.handleInvalidate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if co.draining.Load() {
			server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.Handle("GET /debug/requests", co.recorder.RecentHandler())
	mux.Handle("GET /debug/requests/slow", co.recorder.SlowHandler())
	mux.Handle("GET /debug/inflight", co.recorder.InflightHandler())
	mux.HandleFunc("GET /debug/search", co.handleDebugSearch)
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		co.traceStore().HandleTraces(w, r)
	})
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		ts := co.traceStore()
		if ts == nil {
			http.Error(w, "trace store disabled", http.StatusNotFound)
			return
		}
		ts.HandleTraceByID(w, r)
	})
	return co.withRequestScope(mux)
}

// ctxKey keys the request-scoped values the middleware attaches.
type ctxKey int

const ctxKeyLogger ctxKey = iota

// withRequestScope mirrors the single-node server's outermost
// middleware: request-ID assignment and echo, request-scoped logger,
// and — for /v1/* — the coordinator-side trace root span (continuing an
// inbound traceparent when present) plus flight-recorder tracking.
func (co *Coordinator) withRequestScope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		logger := co.cfg.Logger.With("request_id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, ctxKeyLogger, logger)

		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		if co.cfg.TraceStore != nil {
			ctx = obs.ContextWithTraceStore(ctx, co.cfg.TraceStore)
		}
		if sc, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			ctx = obs.ContextWithRemote(ctx, sc)
		}
		ctx, span := obs.StartSpan(ctx, "coord "+r.URL.Path)
		span.SetAttr("request_id", id)
		w.Header().Set("X-Trace-Id", span.TraceID())

		rec := &obs.RequestRecord{ID: id, TraceID: span.TraceID(), Endpoint: r.URL.Path, Start: time.Now()}
		endInflight := co.recorder.Begin(id, r.URL.Path, rec.Start)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			endInflight()
			rec.Duration = time.Since(rec.Start)
			rec.Status = sw.status
			if rec.Outcome == "" {
				if sw.status == 0 || sw.status >= 400 {
					rec.Outcome = obs.OutcomeError
				} else {
					rec.Outcome = obs.OutcomeOK
				}
			}
			span.SetAttr("outcome", rec.Outcome)
			span.SetAttr("status", strconv.Itoa(sw.status))
			if rec.Outcome == obs.OutcomeError {
				// The tail sampler keeps error traces by span status alone.
				span.SetError("status " + strconv.Itoa(sw.status))
			}
			span.End()
			co.recorder.Record(*rec)
			if thr := co.recorder.SlowThreshold(); thr > 0 && rec.Duration >= thr {
				logger.Warn("slow coordinator query", "endpoint", rec.Endpoint,
					"dur", rec.Duration, "outcome", rec.Outcome, "trace_id", rec.TraceID)
			}
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// validRequestID accepts the same constrained ID alphabet as the
// single-node server.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// reqLogger returns the request-scoped logger, or the configured one
// outside a request.
func (co *Coordinator) reqLogger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(ctxKeyLogger).(*slog.Logger); ok {
		return l
	}
	return co.cfg.Logger
}
