package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ktg/internal/obs"
)

// ctxKey keys the request-scoped values the middleware attaches.
type ctxKey int

const (
	ctxKeyLogger ctxKey = iota
	ctxKeyRecord
)

// maxRequestIDLen bounds inbound X-Request-Id values; anything longer
// (or containing characters outside the ID alphabet) is replaced with a
// server-generated ID rather than echoed back verbatim.
const maxRequestIDLen = 128

// sanitizeRequestID returns id when it is safe to propagate into logs
// and response headers, "" otherwise.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return ""
		}
	}
	return id
}

// statusWriter captures the response status code for the request
// record. The JSON API never hijacks or flushes, so losing the optional
// ResponseWriter interfaces is harmless here.
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

// Scope is the request scope both front ends, the query server and the
// shard coordinator, wrap their routes in: request IDs, request-scoped
// loggers, the trace root span, the flight record with its slow-request
// log, and the health, metrics and debug routes that read them.
type Scope struct {
	prefix   string
	logger   *slog.Logger
	recorder *obs.FlightRecorder
	traces   *obs.TraceStore
}

// NewScope builds one front end's request scope. prefix names its root
// spans ("server" or "coord"). traces may be nil: spans then flush to,
// and /debug/traces serves, the process-wide default store.
func NewScope(prefix string, logger *slog.Logger, recorder *obs.FlightRecorder, traces *obs.TraceStore) *Scope {
	return &Scope{prefix: prefix, logger: logger, recorder: recorder, traces: traces}
}

// Mount registers the routes every front end serves alike: liveness,
// the shared metrics registry, the flight recorder and the trace store.
func (sc *Scope) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.Handle("GET /debug/requests", sc.recorder.RecentHandler())
	mux.Handle("GET /debug/requests/slow", sc.recorder.SlowHandler())
	mux.Handle("GET /debug/inflight", sc.recorder.InflightHandler())
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		sc.traceStore().HandleTraces(w, r)
	})
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		ts := sc.traceStore()
		if ts == nil {
			http.Error(w, "trace store disabled", http.StatusNotFound)
			return
		}
		ts.HandleTraceByID(w, r)
	})
}

// traceStore resolves the store serving /debug/traces: the configured
// one, else the process default (resolved per request, mirroring the
// DefaultRecorder pattern; may be nil).
func (sc *Scope) traceStore() *obs.TraceStore {
	if sc.traces != nil {
		return sc.traces
	}
	return obs.DefaultTraceStore()
}

// Wrap is the outermost middleware: it assigns the request ID (honoring
// a well-formed inbound X-Request-Id, generating one otherwise), echoes
// it on the response, attaches a request-scoped logger and the ID itself
// to the context (so search start/done logs correlate), and — for /v1/*
// API requests — extracts any inbound W3C traceparent, opens the root
// span "<prefix> <path>" (its trace ID echoed as X-Trace-Id), tracks the
// request in the flight recorder's in-flight table and records it on
// completion, emitting a slow-query warning when it clears the recorder
// threshold.
func (sc *Scope) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		logger := sc.logger.With("request_id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, ctxKeyLogger, logger)

		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}

		// Continue the caller's trace when it sent a well-formed
		// traceparent; start a fresh one otherwise. The root span is the
		// local root: every queue/cache/search child span hangs off it,
		// and its End flushes the fragment to the trace store.
		if sc.traces != nil {
			ctx = obs.ContextWithTraceStore(ctx, sc.traces)
		}
		if tp, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			ctx = obs.ContextWithRemote(ctx, tp)
		}
		ctx, span := obs.StartSpan(ctx, sc.prefix+" "+r.URL.Path)
		span.SetAttr("request_id", id)
		w.Header().Set("X-Trace-Id", span.TraceID())

		rec := &obs.RequestRecord{ID: id, TraceID: span.TraceID(), Endpoint: r.URL.Path, Start: time.Now()}
		ctx = context.WithValue(ctx, ctxKeyRecord, rec)
		endInflight := sc.recorder.Begin(id, r.URL.Path, rec.Start)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			endInflight()
			rec.Duration = time.Since(rec.Start)
			rec.Status = sw.status
			if rec.Outcome == "" {
				// Handlers that know better (cached, partial, degraded,
				// rejections) have already classified themselves; this
				// fallback covers auxiliary endpoints and recovered panics.
				if sw.status == 0 || sw.status >= 400 {
					rec.Outcome = obs.OutcomeError
				} else {
					rec.Outcome = obs.OutcomeOK
				}
			}
			span.SetAttr("outcome", rec.Outcome)
			span.SetAttr("status", strconv.Itoa(sw.status))
			if rec.Outcome == obs.OutcomeError {
				// The tail sampler keeps error traces by span status alone;
				// the message says why when the handler recorded it.
				msg := rec.Error
				if msg == "" {
					msg = "status " + strconv.Itoa(sw.status)
				}
				span.SetError(msg)
			}
			span.End()
			sc.recorder.Record(*rec)
			if thr := sc.recorder.SlowThreshold(); thr > 0 && rec.Duration >= thr {
				logger.Warn("slow query",
					"endpoint", rec.Endpoint, "dataset", rec.Dataset,
					"algorithm", rec.Algorithm, "dur", rec.Duration,
					"queue_wait", rec.QueueWait, "outcome", rec.Outcome,
					"trace_id", rec.TraceID)
			}
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// Logger returns the request-scoped logger Wrap installed (it carries
// the request_id attribute), falling back to the configured logger for
// code paths outside a request.
func (sc *Scope) Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(ctxKeyLogger).(*slog.Logger); ok {
		return l
	}
	return sc.logger
}

// Annotate stamps the dataset and algorithm a request resolved to on its
// flight record and its in-flight row.
func (sc *Scope) Annotate(ctx context.Context, dataset, algorithm string) {
	rec := RequestRecord(ctx)
	rec.Dataset, rec.Algorithm = dataset, algorithm
	sc.recorder.Annotate(rec.ID, dataset, algorithm)
}

// RequestRecord returns the mutable flight record of this request.
// Outside Wrap (a handler invoked directly) it returns a throwaway
// record, so handlers never need a nil check.
func RequestRecord(ctx context.Context) *obs.RequestRecord {
	if rec, ok := ctx.Value(ctxKeyRecord).(*obs.RequestRecord); ok {
		return rec
	}
	return &obs.RequestRecord{}
}

// Outcome classifies an answer for its flight record: degraded wins
// over partial, partial over ok.
func Outcome(degraded, partial bool) string {
	switch {
	case degraded:
		return obs.OutcomeDegraded
	case partial:
		return obs.OutcomePartial
	default:
		return obs.OutcomeOK
	}
}

// Reject answers a request with aerr and records the message on the
// request's flight record, so a refused request says why in
// /debug/requests and on its trace.
func Reject(w http.ResponseWriter, r *http.Request, aerr *APIError) {
	rec := RequestRecord(r.Context())
	rec.Outcome, rec.Error = obs.OutcomeError, aerr.Message
	WriteAPIError(w, aerr)
}
