package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ktg/internal/obs"
	"ktg/internal/server"
)

// TestCoordinatorRecordsPartialMerge: a merge that lost a shard is
// answered as an explicit partial, and the coordinator's flight record
// says so — outcome "partial", with the dataset and algorithm labeled.
func TestCoordinatorRecordsPartialMerge(t *testing.T) {
	good := startShard(t, server.Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	co := newCoordinator(t, Config{Shards: []string{good.URL, dead.URL},
		Recorder: obs.NewFlightRecorder(16, 0, -1, 0)})
	h := co.Handler()
	rec, got := postJSON(t, h, "/v1/query", goodBody)
	if rec.Code != http.StatusOK || got["partial"] != true {
		t.Fatalf("status %d body %v, want a 200 partial merge", rec.Code, got)
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/requests", nil)
	drec := httptest.NewRecorder()
	h.ServeHTTP(drec, req)
	var out struct {
		Records []obs.RequestRecord `json:"records"`
	}
	if err := json.Unmarshal(drec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/debug/requests: bad JSON: %v", err)
	}
	for _, r := range out.Records {
		if r.ID != rec.Header().Get("X-Request-Id") {
			continue
		}
		if r.Outcome != obs.OutcomePartial || r.Dataset != "reviewers" || r.Algorithm != "vkc-deg" {
			t.Fatalf("record outcome %q dataset %q algorithm %q, want partial reviewers vkc-deg",
				r.Outcome, r.Dataset, r.Algorithm)
		}
		return
	}
	t.Fatalf("/debug/requests lacks the query: %+v", out.Records)
}
