package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux returns an http.ServeMux exposing the observability surface
// for the given registry:
//
//	/metrics             — Prometheus text (?format=json for JSON)
//	/debug/vars          — expvar JSON (includes the registry once published)
//	/debug/pprof/        — the standard pprof profiles
//	/debug/requests      — the flight recorder's recent-request ring (JSON)
//	/debug/requests/slow — the slow-query log: top-K by latency (JSON)
//	/debug/inflight      — currently executing requests with elapsed time
//	/debug/search        — in-flight searches with live progress snapshots
//	/debug/traces        — the tail-sampled trace store listing (JSON)
//	/debug/traces/{id}   — one trace (JSON; ?format=waterfall for ASCII)
//
// The request and search endpoints serve the process-wide
// DefaultRecorder and DefaultTraceStore, resolved per request so a
// recorder or store installed after the mux was built (ktgserver sizes
// both from its flags) is still picked up.
func DebugMux(reg *Registry) *http.ServeMux {
	if reg == defaultRegistry {
		PublishExpvar()
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		DefaultRecorder().RecentHandler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/requests/slow", func(w http.ResponseWriter, r *http.Request) {
		DefaultRecorder().SlowHandler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/inflight", func(w http.ResponseWriter, r *http.Request) {
		DefaultRecorder().InflightHandler().ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /debug/search", func(w http.ResponseWriter, r *http.Request) {
		DefaultRecorder().SearchHandler().ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		DefaultTraceStore().HandleTraces(w, r)
	})
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		ts := DefaultTraceStore()
		if ts == nil {
			http.Error(w, "trace store disabled", http.StatusNotFound)
			return
		}
		ts.HandleTraceByID(w, r)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "ktg debug server\n\n/metrics\n/debug/vars\n/debug/pprof/\n/debug/requests\n/debug/requests/slow\n/debug/inflight\n/debug/search\n/debug/traces\n")
	})
	return mux
}

// StartDebugServer binds addr (e.g. ":6060") and serves DebugMux for
// the default registry in a background goroutine. It returns the bound
// listener address (useful with ":0") and a shutdown func. The three
// observable cmd/ tools share this behind their -debug-addr flag.
func StartDebugServer(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{Handler: DebugMux(defaultRegistry), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
