package shard

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"ktg/internal/obs"
	"ktg/internal/server"
)

// stubShard answers every /v1/query/partial call with a well-formed,
// empty slice whose epoch and frontier size shape picks per slice index.
func stubShard(t *testing.T, shape func(slice int) (epoch uint64, frontier int)) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		epoch, frontier := shape(req.SliceIndex)
		server.WriteJSON(w, http.StatusOK, server.PartialResponse{
			Dataset:      req.Dataset,
			Algorithm:    "vkc-deg",
			SliceIndex:   req.SliceIndex,
			SliceCount:   req.SliceCount,
			FrontierSize: frontier,
			QueryWidth:   len(req.Keywords),
			Threshold:    -1,
			Offers:       []server.PartialOfferJSON{},
			Groups:       []server.GroupJSON{},
			Epoch:        epoch,
		})
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorErrorTracesAreKept: a request the coordinator rejects
// (400) or refuses to merge (502 shard_epoch_skew, 502
// shard_inconsistent) marks its root span failed, so a store that keeps
// flagged traces only retains it with reason "error".
func TestCoordinatorErrorTracesAreKept(t *testing.T) {
	skewed := func(i int) (uint64, int) { return uint64(i + 1), 10 }
	mismatched := func(i int) (uint64, int) { return 1, 10 + i }
	for _, tc := range []struct {
		name   string
		shards []string
		body   string
		status int
		code   string
	}{
		{"rejected", []string{stubShard(t, skewed)},
			`{"dataset":"reviewers","keywords":[],"group_size":3,"tenuity":1}`,
			http.StatusBadRequest, "missing_keywords"},
		{"epoch_skew", []string{stubShard(t, skewed), stubShard(t, skewed)},
			goodBody, http.StatusBadGateway, "shard_epoch_skew"},
		{"inconsistent", []string{stubShard(t, mismatched), stubShard(t, mismatched)},
			goodBody, http.StatusBadGateway, "shard_inconsistent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := obs.NewTraceStore(obs.TraceStoreConfig{SampleRate: -1})
			co := newCoordinator(t, Config{Shards: tc.shards, TraceStore: store,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			rec, out := postJSON(t, co.Handler(), "/v1/query", tc.body)
			apiErr, _ := out["error"].(map[string]any)
			if rec.Code != tc.status || apiErr["code"] != tc.code {
				t.Fatalf("status %d body %v, want %d %s", rec.Code, out, tc.status, tc.code)
			}
			tr := awaitTrace(t, store, rec.Header().Get("X-Trace-Id"))
			if !tr.Kept || !slices.Contains(tr.Why, "error") {
				t.Fatalf("trace kept=%v why=%v, want kept for error", tr.Kept, tr.Why)
			}
		})
	}
}
