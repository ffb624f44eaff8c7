package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"ktg/internal/obs"
)

// TestRecordPhasesMatchStats: a flight-recorder record's phases are the
// answer's own SearchStats timings — compile_ns, candidate_ns and
// explore_ns — and a phase the algorithm does not run is left out.
func TestRecordPhasesMatchStats(t *testing.T) {
	s := newTestServer(t, Config{Recorder: obs.NewFlightRecorder(8, 0, -1, 0),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()

	for _, tc := range []struct {
		name, path, body string
		phases           []string
	}{
		{"query", "/v1/query", goodBody, []string{"compile", "candidates", "explore"}},
		{"partial", "/v1/query/partial",
			`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"slice_index":0,"slice_count":2}`,
			[]string{"compile", "candidates", "explore"}},
		{"greedy", "/v1/query",
			`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"algorithm":"greedy"}`,
			[]string{"compile", "explore"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if rec, _ := postJSON(t, h, tc.path, tc.body); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.path, rec.Code, rec.Body.String())
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?limit=1", nil))
			var out struct {
				Records []struct {
					Endpoint string `json:"endpoint"`
					Phases   []struct {
						Phase    string `json:"phase"`
						Duration int64  `json:"duration_ns"`
					} `json:"phases"`
					Stats map[string]any `json:"stats"`
				} `json:"records"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("/debug/requests: bad JSON: %v", err)
			}
			if len(out.Records) != 1 || out.Records[0].Endpoint != tc.path {
				t.Fatalf("/debug/requests newest = %+v, want the %s request", out.Records, tc.path)
			}
			r := out.Records[0]
			statsKey := map[string]string{"compile": "compile_ns", "candidates": "candidate_ns", "explore": "explore_ns"}
			var got []string
			for _, p := range r.Phases {
				got = append(got, p.Phase)
				want, _ := r.Stats[statsKey[p.Phase]].(float64)
				if p.Duration != int64(want) {
					t.Errorf("phase %q = %dns, stats %s = %v", p.Phase, p.Duration, statsKey[p.Phase], r.Stats[statsKey[p.Phase]])
				}
			}
			if len(got) != len(tc.phases) {
				t.Fatalf("phases = %v, want %v", got, tc.phases)
			}
			for i := range got {
				if got[i] != tc.phases[i] {
					t.Fatalf("phases = %v, want %v", got, tc.phases)
				}
			}
		})
	}
}
