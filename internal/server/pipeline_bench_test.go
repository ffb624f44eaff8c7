package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ktg"
)

// BenchmarkServePipeline measures one request through the server's
// handler, search included, on the paper's Figure 1 reviewer network:
// a /v1/query cache miss (caching disabled, so every request searches),
// a /v1/query cache hit, and a /v1/query/partial slice. ns/op is noisy
// at this size; B/op and allocs/op are the stable signal.
func BenchmarkServePipeline(b *testing.B) {
	const partialBody = `{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"slice_index":0,"slice_count":2}`
	for _, bc := range []struct {
		name, path, body string
		cacheSize        int
	}{
		{"query-miss", "/v1/query", goodBody, -1},
		{"query-hit", "/v1/query", goodBody, 0},
		{"partial", "/v1/query/partial", partialBody, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := benchHandler(b, Config{CacheSize: bc.cacheSize,
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			serve := func() {
				req := httptest.NewRequest(http.MethodPost, bc.path, strings.NewReader(bc.body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", bc.path, rec.Code, rec.Body.String())
				}
			}
			serve() // fills the cache for query-hit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// benchHandler serves the reviewer network (the fixture reviewerNetwork
// builds, which takes a *testing.T) behind a fresh server.
func benchHandler(b *testing.B, cfg Config) http.Handler {
	b.Helper()
	bld := ktg.NewBuilder(12)
	for _, e := range [][2]ktg.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 9}, {0, 11},
		{2, 3}, {3, 4}, {3, 9},
		{4, 6}, {4, 8}, {5, 6}, {6, 7}, {6, 9}, {7, 8},
		{9, 10}, {10, 11},
	} {
		bld.AddEdge(e[0], e[1])
	}
	for v, kws := range map[ktg.Vertex][]string{
		0: {"SN", "GD", "DQ"}, 1: {"SN", "DQ"}, 2: {"GD"}, 3: {"SN"}, 4: {"GQ"}, 5: {"GD"},
		6: {"SN", "GQ"}, 7: {"DQ"}, 8: {"XX"}, 10: {"QP", "SN"}, 11: {"DQ", "GD"},
	} {
		bld.SetKeywords(v, kws...)
	}
	net, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	idx, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(cfg, &Dataset{Name: "reviewers", Network: net, Index: idx})
	if err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}
