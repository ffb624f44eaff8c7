package keywords

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ktg/internal/bitset"
	"ktg/internal/graph"
)

// refCompile is the per-vertex compile the postings replaced: one map
// lookup per stored keyword of every vertex and one mask per vertex. The
// compiled form must agree with it on every vertex.
func refCompile(a *Attributes, queryIDs []ID) (masks []bitset.Set, width int, err error) {
	ids := append([]ID(nil), queryIDs...)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) == 0 {
		return nil, 0, fmt.Errorf("empty query")
	}
	pos := make(map[ID]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	masks = make([]bitset.Set, a.NumVertices())
	for v := range masks {
		masks[v] = bitset.New(len(ids))
		for _, id := range a.of[v] {
			if i, ok := pos[id]; ok {
				masks[v].Add(i)
			}
		}
	}
	return masks, len(ids), nil
}

// requireMatchesRef compiles the query both ways and compares S_R, the
// width, every vertex's mask and coverage, and the coverage of a few
// groups.
func requireMatchesRef(t *testing.T, label string, a *Attributes, queryIDs []ID) {
	t.Helper()
	q, err := CompileQuery(a, queryIDs)
	want, width, werr := refCompile(a, queryIDs)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: CompileQuery error %v, reference error %v", label, err, werr)
	}
	if err != nil {
		return
	}
	if q.Width() != width {
		t.Fatalf("%s: Width = %d, reference %d", label, q.Width(), width)
	}
	var sr []graph.Vertex
	for v, m := range want {
		if m.Any() {
			sr = append(sr, graph.Vertex(v))
		}
	}
	if got := q.Candidates(); !slices.Equal(got, sr) {
		t.Fatalf("%s: S_R = %v, reference %v", label, got, sr)
	}
	for v, m := range want {
		u := graph.Vertex(v)
		if got := q.Mask(u); !got.Equal(m) {
			t.Fatalf("%s: Mask(%d) = %v, reference %v", label, v, got, m)
		}
		if got := q.CoverageCount(u); got != m.Count() {
			t.Fatalf("%s: CoverageCount(%d) = %d, reference %d", label, v, got, m.Count())
		}
	}
	groups := [][]graph.Vertex{nil, sr}
	for v := 0; v+1 < len(want); v += 2 {
		groups = append(groups, []graph.Vertex{graph.Vertex(v), graph.Vertex(v + 1)})
	}
	for _, grp := range groups {
		cover := bitset.New(q.Width())
		for _, v := range grp {
			cover.UnionWith(want[v])
		}
		if got := q.GroupCoverageCount(grp); got != cover.Count() {
			t.Fatalf("%s: GroupCoverageCount(%v) = %d, reference %d", label, grp, got, cover.Count())
		}
	}
}

func TestCompileQueryMatchesReference(t *testing.T) {
	fig := figure1Attributes()
	figIDs := QueryIDsForNames(fig, figure1Query)

	sparse := NewAttributes(6, nil)
	sparse.Assign(0, "a", "b")
	sparse.AssignIDs(2, 1, 40, 1000) // ids far above the vocabulary
	sparse.AssignIDs(4, 40)

	for _, tc := range []struct {
		name  string
		attrs *Attributes
		ids   []ID
	}{
		{"figure 1", fig, figIDs},
		{"duplicates and unknown ids", fig, append([]ID{figIDs[2], figIDs[2], 77, 77}, figIDs[:2]...)},
		{"only unknown ids", fig, []ID{500, 501}},
		{"ids above the vocabulary", sparse, []ID{0, 40, 1000, 1001}},
		{"no keywords anywhere", NewAttributes(5, nil), []ID{0, 3}},
		{"no vertices", NewAttributes(0, nil), []ID{0}},
		{"empty query", fig, nil},
	} {
		requireMatchesRef(t, tc.name, tc.attrs, tc.ids)
	}
}

// TestCompileQueryAfterAssign reassigns profiles after a compile: the
// next compile must answer from the new profiles.
func TestCompileQueryAfterAssign(t *testing.T) {
	a := figure1Attributes()
	ids := QueryIDsForNames(a, figure1Query)
	requireMatchesRef(t, "before", a, ids)
	a.Assign(8, "QP", "GQ")   // a vertex joins S_R
	a.Assign(10)              // one leaves it
	a.AssignIDs(3, ids[0], 9) // a new id beyond everything stored
	requireMatchesRef(t, "after", a, append(ids, 9))
}

// FuzzCompileQuery checks the compiled form against the per-vertex
// reference on fuzzed profiles and queries: duplicate and unknown query
// ids, empty profiles, ids above the vocabulary, and profiles reassigned
// after the first compile.
//
//	go test ./internal/keywords -run '^$' -fuzz FuzzCompileQuery -fuzztime 10s
func FuzzCompileQuery(f *testing.F) {
	f.Add([]byte{12, 3, 1, 2, 3, 0, 2, 9, 9, 4, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{70, 0, 0, 5, 200, 201, 202, 7, 1, 1, 1, 1})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := next() % 130
		a := NewAttributes(n, nil)
		for i := 0; i < 8; i++ {
			a.vocab.Intern(fmt.Sprintf("kw%d", i))
		}
		for v := 0; v < n; v++ {
			ids := make([]ID, next()%4)
			for i := range ids {
				ids[i] = ID(next() % 24) // ids 8..23 are never interned
			}
			a.AssignIDs(graph.Vertex(v), ids...)
		}
		query := make([]ID, next()%7)
		for i := range query {
			query[i] = ID(next() % 30)
		}
		requireMatchesRef(t, "first compile", a, query)
		if n > 0 {
			a.AssignIDs(graph.Vertex(next()%n), ID(next()%30), ID(next()%30))
			requireMatchesRef(t, "after AssignIDs", a, query)
		}
	})
}

// TestConcurrentFirstCompile compiles on fresh Attributes from several
// goroutines at once. The postings must be built once and every compile
// must see them whole; run it under the race detector, repeatedly:
//
//	go test -race -count=10 ./internal/keywords -run ConcurrentFirstCompile
func TestConcurrentFirstCompile(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := NewAttributes(2000, nil)
	for v := 0; v < 2000; v++ {
		ids := make([]ID, r.Intn(5))
		for i := range ids {
			ids[i] = ID(r.Intn(60))
		}
		a.AssignIDs(graph.Vertex(v), ids...)
	}
	query := []ID{3, 7, 11, 59}
	want, _, err := refCompile(a, query)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	built := make([]*graph.Vertex, workers) // the first vertex of a posting

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q, err := CompileQuery(a, query)
			if err != nil {
				t.Error(err)
				return
			}
			built[w] = &a.Posting(query[0])[0]
			for v, m := range want {
				if !q.Mask(graph.Vertex(v)).Equal(m) {
					t.Errorf("worker %d: Mask(%d) = %v, reference %v", w, v, q.Mask(graph.Vertex(v)), m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if built[w] != built[0] {
			t.Fatalf("workers 0 and %d read different postings: built more than once", w)
		}
	}
}
