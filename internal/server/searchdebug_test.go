package server_test

// The /debug/search acceptance test: while a slow exact query runs on a
// live mutable dataset — with a concurrent mutation stream publishing
// new epochs — the in-flight search table must expose progress snapshots
// that are monotone (nodes, roots, best never go backwards) and
// internally consistent (no torn reads: the snapshot is published
// through one atomic pointer swap), and the row must vanish once the
// query completes. Run under -race this also proves the probe's hot
// path shares no unsynchronized state with the table reader or the
// epoch-swapping writer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ktg"
	"ktg/internal/gen"
	"ktg/internal/server"
	"ktg/internal/workload"
)

type progressJSON struct {
	ElapsedNS     int64   `json:"elapsed_ns"`
	Nodes         int64   `json:"nodes"`
	RootsExplored int64   `json:"roots_explored"`
	RootsTotal    int64   `json:"roots_total"`
	Best          int     `json:"best"`
	Threshold     int     `json:"threshold"`
	NodesPerSec   float64 `json:"nodes_per_sec"`
	Done          bool    `json:"done"`
}

type searchRowWire struct {
	ID        string        `json:"id"`
	Endpoint  string        `json:"endpoint"`
	Dataset   string        `json:"dataset"`
	Algorithm string        `json:"algorithm"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Progress  *progressJSON `json:"progress"`
}

func pollSearchTable(t *testing.T, base string) []searchRowWire {
	t.Helper()
	resp, err := http.Get(base + "/debug/search")
	if err != nil {
		t.Fatalf("GET /debug/search: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/search returned %d", resp.StatusCode)
	}
	var wire struct {
		Searches []searchRowWire `json:"searches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("decoding /debug/search: %v", err)
	}
	return wire.Searches
}

func TestDebugSearchLiveProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("live /debug/search progress test skipped in -short mode")
	}

	// A graph-replica live network (nil index): every distance check is
	// a bounded BFS on the mutable graph, which at this scale stretches
	// one exact query to hundreds of milliseconds — long enough to poll
	// its progress repeatedly — while mutations stay supported.
	const (
		dsName  = "livedbg"
		dbScale = 0.2
	)
	net, err := ktg.GeneratePreset(livePreset, dbScale)
	if err != nil {
		t.Fatal(err)
	}
	live, err := ktg.NewLiveNetwork(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Workers:          2,
		QueueDepth:       8,
		DegradeQueueWait: -1,
	}, &server.Dataset{Name: dsName, Network: net, Live: live})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A deliberately heavy exact query: top_n=100 keeps the top-N heap
	// wide, so ~100 groups must be assembled before the Theorem 2 bound
	// starts cutting, and every member but the last k-line filters S_R
	// with 3-hop BFS checks.
	body, err := json.Marshal(map[string]any{
		"dataset":    dsName,
		"keywords":   net.PopularKeywords(6),
		"group_size": 6,
		"tenuity":    3,
		"top_n":      100,
		// Plain runs answer exact in a few hundred ms; under -race the
		// BFS oracle is slow enough that the 3s deadline cuts the search
		// into a partial answer — both are fine here, the subject is the
		// progress table, not the result.
		"timeout_ms": 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	qdone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			qdone <- err
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			qdone <- fmt.Errorf("query returned %d", resp.StatusCode)
			return
		}
		qdone <- nil
	}()

	// Concurrent mutation stream against the same LiveNetwork the query
	// is reading: epochs swap under the in-flight search while the table
	// is polled.
	ds, err := gen.GeneratePreset(livePreset, dbScale)
	if err != nil {
		t.Fatal(err)
	}
	stopMut := make(chan struct{})
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		mut := workload.NewMutator(ds.Graph, 7)
		for {
			select {
			case <-stopMut:
				return
			default:
			}
			raw := mut.Batch(3, 0.5)
			ops := make([]ktg.EdgeOp, 0, len(raw))
			for _, op := range raw {
				ops = append(ops, ktg.EdgeOp{Insert: op.Insert, U: op.U, V: op.V})
			}
			if _, err := live.ApplyEdges(ops); err != nil {
				t.Errorf("mutation batch failed: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Poll the table while the query runs. Per row ID the snapshots must
	// be monotone and internally consistent.
	last := map[string]progressJSON{}
	seen := 0
	for running := true; running; {
		select {
		case err := <-qdone:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(10 * time.Millisecond):
			for _, row := range pollSearchTable(t, ts.URL) {
				if row.Dataset != dsName {
					continue
				}
				seen++
				if row.Endpoint != "/v1/query" {
					t.Errorf("row endpoint = %q, want /v1/query", row.Endpoint)
				}
				if row.Progress == nil {
					continue // registered, search not begun yet
				}
				p := *row.Progress
				if p.RootsExplored > p.RootsTotal {
					t.Errorf("torn snapshot: roots_explored %d > roots_total %d", p.RootsExplored, p.RootsTotal)
				}
				if p.Threshold >= 0 && p.Threshold > p.Best {
					t.Errorf("torn snapshot: threshold %d > best %d", p.Threshold, p.Best)
				}
				if prev, ok := last[row.ID]; ok {
					if p.Nodes < prev.Nodes {
						t.Errorf("nodes went backwards: %d -> %d", prev.Nodes, p.Nodes)
					}
					if p.RootsExplored < prev.RootsExplored {
						t.Errorf("roots_explored went backwards: %d -> %d", prev.RootsExplored, p.RootsExplored)
					}
					if p.Best < prev.Best {
						t.Errorf("best went backwards: %d -> %d", prev.Best, p.Best)
					}
					if p.ElapsedNS < prev.ElapsedNS {
						t.Errorf("elapsed_ns went backwards: %d -> %d", prev.ElapsedNS, p.ElapsedNS)
					}
				}
				last[row.ID] = p
			}
		}
	}
	close(stopMut)
	mwg.Wait()

	if seen < 3 {
		t.Errorf("only %d polls observed the in-flight search; the query finished too fast to prove anything", seen)
	}

	// The row must be removed once the search completes (unregister is
	// deferred in runSearch, so it precedes the response write; one
	// retry loop absorbs scheduling slack).
	deadline := time.Now().Add(2 * time.Second)
	for {
		stale := 0
		for _, row := range pollSearchTable(t, ts.URL) {
			if row.Dataset == dsName {
				stale++
			}
		}
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d rows for dataset %q still in /debug/search after completion", stale, dsName)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
