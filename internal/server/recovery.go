package server

import (
	"net/http"
	"sync/atomic"
)

// RecoveryGate is the HTTP surface a durable server exposes while its
// datasets are still replaying their WALs at boot. The listener opens
// before recovery so probes and clients get an honest answer instead of
// a connection refusal: /healthz reports the process alive, and every
// other route — /readyz included — answers 503 with
//
//	{"replaying": true, "records_remaining": N}
//
// where N counts the WAL records still to apply (0 while the log is
// being scanned or between datasets). Once recovery completes the
// serving handler is swapped in and the gate is garbage.
type RecoveryGate struct {
	// remaining is the records left to replay; -1 means "no replay has
	// reported yet" and renders as 0.
	remaining atomic.Int64
}

// NewRecoveryGate returns a gate with no replay progress reported yet.
func NewRecoveryGate() *RecoveryGate {
	g := &RecoveryGate{}
	g.remaining.Store(-1)
	return g
}

// SetProgress records replay progress for one dataset, in the shape
// ktg.WALConfig.Progress delivers it.
func (g *RecoveryGate) SetProgress(applied, total int) {
	g.remaining.Store(int64(total - applied))
}

// Handler returns the gate's HTTP handler.
func (g *RecoveryGate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		remaining := g.remaining.Load()
		if remaining < 0 {
			remaining = 0
		}
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"replaying":         true,
			"records_remaining": remaining,
		})
	})
	return mux
}
