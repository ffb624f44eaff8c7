package ktg

import (
	"cmp"
	"context"
	"errors"
	"io"
	"log/slog"
	"strconv"
	"time"

	"ktg/internal/core"
	"ktg/internal/obs"
)

// SetDefaultLogger installs the process-wide structured logger used by
// every search and index build that was not handed a more specific one
// via Network.SetLogger or SearchOptions.Logger. The library default
// discards all records, so instrumentation is free until opted in.
// Passing nil restores the silent default.
func SetDefaultLogger(l *slog.Logger) { obs.SetLogger(l) }

// NewRequestID returns a fresh random request identifier (16 hex
// chars), the same generator the query server uses for requests that
// arrive without an X-Request-Id header.
func NewRequestID() string { return obs.NewRequestID() }

// WithRequestID returns a context carrying a request ID. Searches run
// with this context (SearchOptions.Context) correlate their start/done
// log lines with the ID even when no request-scoped logger was
// injected, and server-side records pick it up end to end.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFromContext returns the request ID attached by
// WithRequestID, or "" when none is present.
func RequestIDFromContext(ctx context.Context) string {
	return obs.RequestIDFromContext(ctx)
}

// StartDebugServer serves the library's observability surface on addr
// (e.g. ":6060"): Prometheus-text metrics on /metrics (?format=json for
// JSON), expvar on /debug/vars, and the standard profiles under
// /debug/pprof/. It returns the bound address (useful with ":0") and a
// shutdown function. The cmd/ tools expose it as -debug-addr.
func StartDebugServer(addr string) (string, func() error, error) {
	return obs.StartDebugServer(addr)
}

// WriteMetrics renders the process-wide KTG metrics in the Prometheus
// text exposition format.
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// MetricsSnapshot returns the process-wide KTG metrics as a plain map
// (histograms appear as {count, sum, mean, p50, p99} objects).
func MetricsSnapshot() map[string]any { return obs.Default().Snapshot() }

// Process-wide search metrics, batched at search boundaries so the hot
// path never touches them per node.
var (
	mSearches = obs.Default().Counter(
		"ktg_searches_total", "KTG/DKTG/greedy searches answered")
	mSearchNanos = obs.Default().Histogram(
		"ktg_search_duration_ns", "end-to-end search wall-clock time in nanoseconds")
	mSearchNodes = obs.Default().Counter(
		"ktg_search_nodes_total", "branch-and-bound nodes explored")
	mSearchPruned = obs.Default().Counter(
		"ktg_search_pruned_total", "subtrees cut by keyword pruning (Theorem 2)")
	mSearchFiltered = obs.Default().Counter(
		"ktg_search_filtered_total", "candidates removed by k-line filtering (Theorem 3)")
	mSearchOracle = obs.Default().Counter(
		"ktg_search_distance_checks_total", "social-distance oracle calls")
	mSearchFeasible = obs.Default().Counter(
		"ktg_search_feasible_total", "complete size-p groups evaluated")
	mSearchExhausted = obs.Default().Counter(
		"ktg_search_budget_exhausted_total", "searches aborted by MaxNodes/MaxDuration")
)

// observe is the one place a search's record becomes its observable
// views. Every search entry point calls it before the core runs: it
// resolves the logger (per-search, then per-Network, then the package
// default) and logs the start. The function it returns takes the
// search's Stats once the core has answered, and from that record
// alone updates the ktg_search_* metrics, adds the phase child spans
// to the span opts.Context carries, and logs the end, so logs, metrics
// and traces cannot disagree with the Stats the caller gets.
func (n *Network) observe(q core.Query, opts SearchOptions, algorithm string) func(st SearchStats, groups int, err error) {
	logger := obs.OrCtx(opts.Context, cmp.Or(opts.Logger, n.logger))
	logger.Debug("ktg: search start", "algorithm", algorithm,
		"keywords", len(q.Keywords), "p", q.P, "k", q.K, "n", q.N)
	span := obs.SpanFromContext(opts.Context)
	start := time.Now()
	return func(st SearchStats, groups int, err error) {
		mSearches.Inc()
		mSearchNanos.Observe(time.Since(start).Nanoseconds())
		mSearchNodes.Add(st.Nodes)
		mSearchPruned.Add(st.Pruned)
		mSearchFiltered.Add(st.Filtered)
		mSearchOracle.Add(st.DistanceChecks)
		mSearchFeasible.Add(st.Feasible)
		if errors.Is(err, ErrBudgetExhausted) {
			mSearchExhausted.Inc()
		}
		if span != nil {
			at := start
			for _, p := range obs.Phases(st.CompileTime, st.CandidateTime, st.ExploreTime) {
				var attrs []obs.Attr
				if p.Phase == obs.PhaseExplore {
					attrs = []obs.Attr{
						{Key: "nodes", Value: strconv.FormatInt(st.Nodes, 10)},
						{Key: "pruned", Value: strconv.FormatInt(st.Pruned, 10)},
						{Key: "filtered", Value: strconv.FormatInt(st.Filtered, 10)},
					}
				}
				span.AddCompletedChild(p.Phase, at, p.Duration, attrs...)
				at = at.Add(p.Duration)
			}
		}
		logger.Debug("ktg: search done", "algorithm", algorithm, "groups", groups,
			"nodes", st.Nodes, "pruned", st.Pruned, "filtered", st.Filtered,
			"distance_checks", st.DistanceChecks, "feasible", st.Feasible,
			"explore", st.ExploreTime, "budget_hit", err != nil)
	}
}
