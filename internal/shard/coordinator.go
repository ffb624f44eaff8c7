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
// error: with the shards' own rejection when the request is at fault (a
// 404 for an unknown dataset, as a single node answers), else 503. Greedy, brute-force, and diverse searches do not
// decompose into mergeable slices; they are forwarded whole to one
// shard with failover.
package shard

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
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
	scope    *server.Scope
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
	co := &Coordinator{
		cfg:   cfg,
		scope: server.NewScope("coord", cfg.Logger, cfg.Recorder, cfg.TraceStore),
	}
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
// Requests run inside the single-node server's request Scope, so they
// carry the same X-Request-Id / X-Trace-Id contract; shard calls
// propagate the trace via traceparent, so one trace spans the
// coordinator and every shard it touched.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", co.handleQuery)
	mux.HandleFunc("POST /v1/diverse", co.handleDiverse)
	mux.HandleFunc("POST /v1/edges", co.handleEdges)
	mux.HandleFunc("GET /v1/datasets", co.handleDatasets)
	mux.HandleFunc("GET /v1/shards", co.handleShards)
	mux.HandleFunc("POST /v1/cache/invalidate", co.handleInvalidate)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if co.draining.Load() {
			server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /debug/search", co.handleDebugSearch)
	co.scope.Mount(mux)
	return co.scope.Wrap(mux)
}

// accept refuses a request that failed validation (aerr is set), and
// any request while the coordinator drains. It reports whether the
// request may go on to the shards.
func (co *Coordinator) accept(w http.ResponseWriter, r *http.Request, aerr *server.APIError) bool {
	switch {
	case aerr != nil:
		mRejectInvalid.Inc()
	case co.draining.Load():
		mRejectDraining.Inc()
		w.Header().Set("Retry-After", "1")
		aerr = &server.APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    "draining",
			Message: "coordinator is shutting down",
		}
	default:
		return true
	}
	server.Reject(w, r, aerr)
	return false
}

// fanout calls fn for every shard concurrently and returns the results
// and errors in shard order once every call has returned.
func fanout[T any](shards []*shardConn, fn func(i int, sh *shardConn) (T, error)) ([]T, []error) {
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shardConn) {
			defer wg.Done()
			out[i], errs[i] = fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	return out, errs
}

// call makes one plain HTTP request to a shard for the non-query routes
// (datasets, debug search, cache invalidation) and returns the body of
// its 200 answer; query traffic goes through the resilient per-shard
// clients instead.
func (co *Coordinator) call(ctx context.Context, sh *shardConn, method, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, sh.base+path, nil)
	if err != nil {
		return nil, err
	}
	hc := co.cfg.Client.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	res, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %s returned %d", sh.base, res.StatusCode)
	}
	return body, nil
}
