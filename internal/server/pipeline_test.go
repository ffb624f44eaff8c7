package server

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ktg"
	"ktg/internal/obs"
)

// TestRejectionsRecordError: a request the pipeline refuses shows in
// /debug/requests with outcome "error" and the message the client got,
// and its root span's error status carries the same message.
func TestRejectionsRecordError(t *testing.T) {
	net := reviewerNetwork(t)
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	live, err := ktg.NewLiveNetwork(net, idx)
	if err != nil {
		t.Fatal(err)
	}
	traces := obs.NewTraceStore(obs.TraceStoreConfig{})
	s := newTestServer(t, Config{
		Recorder:   obs.NewFlightRecorder(16, 0, -1, 0),
		TraceStore: traces,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	},
		&Dataset{Name: "reviewers", Network: net, Index: idx, Live: live},
		&Dataset{Name: "static", Network: reviewerNetwork(t)})
	h := s.Handler()

	for _, tc := range []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"missing keywords", "/v1/query", `{"dataset":"reviewers","keywords":[],"group_size":3}`,
			http.StatusBadRequest, "missing_keywords"},
		{"unknown dataset", "/v1/query", `{"dataset":"nope","keywords":["SN"],"group_size":3,"tenuity":1}`,
			http.StatusNotFound, "unknown_dataset"},
		{"immutable dataset", "/v1/edges", `{"dataset":"static","edges":[{"op":"insert","u":0,"v":5}]}`,
			http.StatusConflict, "immutable_dataset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, out := postJSON(t, h, tc.path, tc.body)
			errObj, _ := out["error"].(map[string]any)
			if rec.Code != tc.status || errObj["code"] != tc.code {
				t.Fatalf("status %d body %v, want %d %s", rec.Code, out, tc.status, tc.code)
			}
			msg, _ := errObj["message"].(string)

			_, recent := getJSON(t, h, "/debug/requests")
			var row map[string]any
			for _, raw := range recent["records"].([]any) {
				if r := raw.(map[string]any); r["id"] == rec.Header().Get("X-Request-Id") {
					row = r
				}
			}
			if row == nil {
				t.Fatalf("/debug/requests lacks request %s: %v", rec.Header().Get("X-Request-Id"), recent)
			}
			if row["outcome"] != obs.OutcomeError || row["error"] != msg {
				t.Fatalf("record outcome %v error %v, want error %q", row["outcome"], row["error"], msg)
			}

			root := awaitTrace(t, traces, rec.Header().Get("X-Trace-Id")).Root()
			if root == nil || root.Status != obs.StatusError || root.StatusMsg != msg {
				t.Fatalf("root span = %+v, want error status with message %q", root, msg)
			}
		})
	}
}

// TestAdmittedEndpointsShareStages drives the stages every admitted
// endpoint shares — dataset lookup, the drain check, admission and the
// queue.wait span — through each of /v1/query, /v1/diverse,
// /v1/query/partial and /v1/edges.
func TestAdmittedEndpointsShareStages(t *testing.T) {
	endpoints := []struct{ name, path, body string }{
		{"query", "/v1/query", `{"dataset":"reviewers","keywords":["SN","GD"],"group_size":2,"tenuity":1}`},
		{"diverse", "/v1/diverse", `{"dataset":"reviewers","keywords":["SN","GD"],"group_size":2,"tenuity":1}`},
		{"partial", "/v1/query/partial", `{"dataset":"reviewers","keywords":["SN","GD"],"group_size":2,"tenuity":1,"slice_count":2}`},
		{"edges", "/v1/edges", `{"dataset":"reviewers","edges":[{"op":"insert","u":5,"v":8}]}`},
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	// Every case needs a fresh server: draining is one-way, and the
	// overload case pins the only worker.
	for _, ep := range endpoints {
		t.Run(ep.name+"/unknown_dataset", func(t *testing.T) {
			h := newMutableTestServer(t, Config{Logger: quiet}).Handler()
			rec, out := postJSON(t, h, ep.path, strings.Replace(ep.body, `"reviewers"`, `"nope"`, 1))
			if errObj, _ := out["error"].(map[string]any); rec.Code != http.StatusNotFound || errObj["code"] != "unknown_dataset" {
				t.Fatalf("status %d body %v, want 404 unknown_dataset", rec.Code, out)
			}
		})

		t.Run(ep.name+"/draining", func(t *testing.T) {
			s := newMutableTestServer(t, Config{Logger: quiet})
			s.Drain()
			rec, out := postJSON(t, s.Handler(), ep.path, ep.body)
			if errObj, _ := out["error"].(map[string]any); rec.Code != http.StatusServiceUnavailable || errObj["code"] != "draining" {
				t.Fatalf("status %d body %v, want 503 draining", rec.Code, out)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("draining rejection lacks Retry-After")
			}
		})

		t.Run(ep.name+"/overloaded", func(t *testing.T) {
			h := newMutableTestServer(t, Config{Workers: 1, QueueDepth: -1, Logger: quiet}).Handler()
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			testSearchHook = func(kind string, req *QueryRequest) {
				if req.Keywords[0] == "BLOCK" {
					once.Do(func() { close(entered) })
					<-release
				}
			}
			defer func() { testSearchHook = nil }()
			held := make(chan int, 1)
			go func() {
				rec, _ := postJSON(t, h, "/v1/query", `{"dataset":"reviewers","keywords":["BLOCK","SN"],"group_size":2,"tenuity":1}`)
				held <- rec.Code
			}()
			<-entered

			rec, out := postJSON(t, h, ep.path, ep.body)
			close(release)
			if errObj, _ := out["error"].(map[string]any); rec.Code != http.StatusTooManyRequests || errObj["code"] != "overloaded" {
				t.Fatalf("status %d body %v, want 429 overloaded", rec.Code, out)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("overload rejection lacks Retry-After")
			}
			if code := <-held; code != http.StatusOK {
				t.Fatalf("holding query finished %d", code)
			}
		})

		t.Run(ep.name+"/queue_wait_span", func(t *testing.T) {
			traces := obs.NewTraceStore(obs.TraceStoreConfig{})
			h := newMutableTestServer(t, Config{TraceStore: traces, Logger: quiet}).Handler()
			rec, out := postJSON(t, h, ep.path, ep.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d body %v", rec.Code, out)
			}
			tr := awaitTrace(t, traces, rec.Header().Get("X-Trace-Id"))
			root := tr.Root()
			if root == nil || root.Name != "server "+ep.path {
				t.Fatalf("trace root = %+v", root)
			}
			for _, sp := range tr.Spans {
				if sp.Name == "queue.wait" && sp.ParentID == root.SpanID {
					return
				}
			}
			t.Fatalf("trace lacks a queue.wait child of the root span: %+v", tr.Spans)
		})
	}
}
