package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func mkRecord(id string, start time.Time, d time.Duration) RequestRecord {
	return RequestRecord{
		ID: id, Endpoint: "/v1/query", Dataset: "ds", Algorithm: "vkc-deg",
		Start: start, Duration: d, Outcome: OutcomeOK, Status: 200,
	}
}

func TestRecorderRingWrapsAndOrders(t *testing.T) {
	f := NewFlightRecorder(4, 0, -1, 0)
	base := time.Now()
	for i := 0; i < 6; i++ {
		f.Record(mkRecord(string(rune('a'+i)), base, time.Duration(i)))
	}
	recent, total := f.Recent(0)
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if len(recent) != 4 {
		t.Fatalf("retained %d records, want 4", len(recent))
	}
	// Newest first: f, e, d, c (a and b were overwritten).
	for i, want := range []string{"f", "e", "d", "c"} {
		if recent[i].ID != want {
			t.Errorf("recent[%d].ID = %q, want %q", i, recent[i].ID, want)
		}
	}
	if limited, _ := f.Recent(2); len(limited) != 2 || limited[0].ID != "f" {
		t.Errorf("Recent(2) = %v", limited)
	}
}

func TestRecorderSlowLog(t *testing.T) {
	f := NewFlightRecorder(8, 3, 10*time.Millisecond, time.Hour)
	base := time.Now()
	f.Record(mkRecord("fast", base, time.Millisecond)) // below threshold
	f.Record(mkRecord("s1", base, 20*time.Millisecond))
	f.Record(mkRecord("s3", base, 40*time.Millisecond))
	f.Record(mkRecord("s2", base, 30*time.Millisecond))
	f.Record(mkRecord("s4", base, 50*time.Millisecond))

	slow := f.Slow()
	if len(slow) != 3 {
		t.Fatalf("slow log holds %d, want top-3", len(slow))
	}
	for i, want := range []string{"s4", "s3", "s2"} {
		if slow[i].ID != want {
			t.Errorf("slow[%d].ID = %q, want %q", i, slow[i].ID, want)
		}
	}
}

func TestRecorderSlowWindowExpiry(t *testing.T) {
	f := NewFlightRecorder(8, 4, time.Millisecond, 50*time.Millisecond)
	old := time.Now().Add(-time.Minute)
	f.Record(mkRecord("ancient", old, 20*time.Millisecond))
	f.Record(mkRecord("fresh", time.Now(), 10*time.Millisecond))
	slow := f.Slow()
	if len(slow) != 1 || slow[0].ID != "fresh" {
		t.Fatalf("window expiry kept %v, want only \"fresh\"", slow)
	}
}

func TestRecorderInflightLifecycle(t *testing.T) {
	f := NewFlightRecorder(4, 0, -1, 0)
	start := time.Now().Add(-time.Second)
	done := f.Begin("req1", "/v1/query", start)
	f.Annotate("req1", "reviewers", "vkc")

	inflight := f.Inflight()
	if len(inflight) != 1 {
		t.Fatalf("inflight = %v, want one entry", inflight)
	}
	e := inflight[0]
	if e.ID != "req1" || e.Dataset != "reviewers" || e.Algorithm != "vkc" {
		t.Errorf("inflight entry = %+v", e)
	}
	if e.ElapsedNS < int64(900*time.Millisecond) {
		t.Errorf("ElapsedNS = %d, want ~1s", e.ElapsedNS)
	}
	done()
	done() // idempotent
	if left := f.Inflight(); len(left) != 0 {
		t.Fatalf("inflight after done = %v, want empty", left)
	}
}

func TestRecorderSearchViewProgress(t *testing.T) {
	f := NewFlightRecorder(4, 0, -1, 0)
	done := f.Begin("req1", "/v1/query", time.Now())
	defer done()
	f.Annotate("req1", "reviewers", "vkc-deg")
	f.Begin("req2", "/v1/edges", time.Now()) // in flight, but no search
	f.SetProgress("missing", func() any { return "ignored" })

	search := func() []map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		f.SearchHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/search", nil))
		var out struct {
			Searches []map[string]any `json:"searches"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("search view: bad JSON: %v", err)
		}
		if out.Searches == nil {
			t.Fatalf("search view renders %q, want a searches array", rec.Body.String())
		}
		return out.Searches
	}
	if rows := search(); len(rows) != 0 {
		t.Fatalf("search view before any progress = %v, want empty", rows)
	}

	f.SetProgress("req1", func() any { return map[string]int{"nodes": 42} })
	rows := search()
	if len(rows) != 1 {
		t.Fatalf("search view = %v, want the one row with progress", rows)
	}
	row := rows[0]
	if row["id"] != "req1" || row["endpoint"] != "/v1/query" || row["dataset"] != "reviewers" || row["algorithm"] != "vkc-deg" {
		t.Errorf("search row = %v", row)
	}
	if p, _ := row["progress"].(map[string]any); p["nodes"] != float64(42) {
		t.Errorf("search row progress = %v, want nodes 42", row["progress"])
	}
	if _, ok := row["elapsed_ns"]; !ok {
		t.Errorf("search row lacks elapsed_ns: %v", row)
	}
	if got := len(f.Inflight()); got != 2 {
		t.Errorf("in-flight table holds %d rows, want both requests", got)
	}

	f.SetProgress("req1", nil)
	if rows := search(); len(rows) != 0 {
		t.Fatalf("search view after clearing = %v, want empty", rows)
	}
	if got := len(f.Inflight()); got != 2 {
		t.Errorf("clearing progress removed an in-flight row: %d left", got)
	}
}

// TestRecorderSearchViewConcurrency attaches and detaches progress from
// several goroutines while the search view renders (run under -race).
func TestRecorderSearchViewConcurrency(t *testing.T) {
	f := NewFlightRecorder(4, 0, -1, 0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := NewRequestID()
				done := f.Begin(id, "/v1/query", time.Now())
				f.SetProgress(id, func() any { return j })
				f.Searches()
				f.SetProgress(id, nil)
				done()
			}
		}()
	}
	wg.Wait()
	if rows := f.Searches(); len(rows) != 0 {
		t.Fatalf("search view after every request finished = %v, want empty", rows)
	}
}

func TestRecorderHandlersJSON(t *testing.T) {
	f := NewFlightRecorder(4, 2, time.Millisecond, time.Hour)
	f.Record(mkRecord("x", time.Now(), 5*time.Millisecond))
	end := f.Begin("y", "/v1/diverse", time.Now())
	defer end()

	var recent struct {
		Total   uint64          `json:"total"`
		Records []RequestRecord `json:"records"`
	}
	rec := httptest.NewRecorder()
	f.RecentHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &recent); err != nil {
		t.Fatalf("recent: bad JSON: %v", err)
	}
	if recent.Total != 1 || len(recent.Records) != 1 || recent.Records[0].ID != "x" {
		t.Errorf("recent = %+v", recent)
	}

	var slow struct {
		ThresholdNS int64           `json:"threshold_ns"`
		Records     []RequestRecord `json:"records"`
	}
	rec = httptest.NewRecorder()
	f.SlowHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests/slow", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("slow: bad JSON: %v", err)
	}
	if slow.ThresholdNS != time.Millisecond.Nanoseconds() || len(slow.Records) != 1 {
		t.Errorf("slow = %+v", slow)
	}

	var inflight struct {
		Inflight []InflightRecord `json:"inflight"`
	}
	rec = httptest.NewRecorder()
	f.InflightHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/inflight", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &inflight); err != nil {
		t.Fatalf("inflight: bad JSON: %v", err)
	}
	if len(inflight.Inflight) != 1 || inflight.Inflight[0].ID != "y" {
		t.Errorf("inflight = %+v", inflight)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	f := NewFlightRecorder(32, 8, time.Millisecond, time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := NewRequestID()
				done := f.Begin(id, "/v1/query", time.Now())
				f.Annotate(id, "ds", "vkc-deg")
				f.Record(mkRecord(id, time.Now(), time.Duration(j)*time.Millisecond))
				done()
				f.Recent(4)
				f.Slow()
				f.Inflight()
			}
		}(i)
	}
	wg.Wait()
	if _, total := f.Recent(0); total != 800 {
		t.Fatalf("total = %d, want 800", total)
	}
}

func TestRequestIDHelpers(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two NewRequestID calls collided: %q", a)
	}
	if len(a) != 16 {
		t.Fatalf("request ID %q has length %d, want 16", a, len(a))
	}
	ctx := WithRequestID(nil, a) //nolint:staticcheck // nil tolerated by design
	if got := RequestIDFromContext(ctx); got != a {
		t.Fatalf("round-trip = %q, want %q", got, a)
	}
	if got := RequestIDFromContext(nil); got != "" {
		t.Fatalf("nil context ID = %q, want empty", got)
	}
}

func TestDefaultRecorderInstall(t *testing.T) {
	custom := NewFlightRecorder(2, 0, -1, 0)
	SetDefaultRecorder(custom)
	if DefaultRecorder() != custom {
		t.Fatal("SetDefaultRecorder did not install the recorder")
	}
	SetDefaultRecorder(nil) // ignored
	if DefaultRecorder() != custom {
		t.Fatal("SetDefaultRecorder(nil) replaced the recorder")
	}
}
