// Package obs is the KTG stack's observability layer: an atomic
// counter/gauge/histogram registry with Prometheus-text, JSON, and
// expvar exposition; slog-based structured logging with a no-op
// package default; request IDs; a flight recorder of completed and
// in-flight requests, whose in-flight rows with a running search are
// the live search view; W3C-propagated trace spans with a tail-sampling
// trace store; and a debug HTTP server exposing all of it.
//
// A search reports only through the Stats record it returns and its
// optional probe; the search core imports neither this package nor
// log/slog. The root ktg package derives the search's log lines,
// metrics and phase spans from that record, and Phases lists the
// phases both the spans and flight-recorder records show. The
// branch-and-bound hot path therefore pays nothing here: metric
// mutations are single atomic adds at search boundaries, span methods
// are no-ops on a nil span, and the default logger discards before
// formatting.
package obs

import (
	"expvar"
	"sync"
)

var (
	defaultRegistry    = NewRegistry()
	publishDefaultOnce sync.Once
)

// Default returns the process-wide metric registry shared by the ktg
// library and the cmd/ tools.
func Default() *Registry { return defaultRegistry }

// PublishExpvar publishes the default registry under the expvar name
// "ktg", so GET /debug/vars includes a "ktg" object with every metric.
// Safe to call more than once; only the first call registers.
func PublishExpvar() {
	publishDefaultOnce.Do(func() {
		expvar.Publish("ktg", expvar.Func(func() any { return defaultRegistry.Snapshot() }))
	})
}
