package core

import (
	"slices"
	"testing"
	"time"

	"ktg/internal/gen"
	"ktg/internal/index"
	"ktg/internal/keywords"
	"ktg/internal/workload"
)

// benchContentSeed draws the benchmark's keyword sets, as the repository
// benchmark draws its query content from one fixed seed.
const benchContentSeed = 2023

// brightkite builds the Brightkite/0.01 preset (583 vertices), its NLRNL
// index and a fixed keyword source.
func brightkite(tb testing.TB) (*gen.Dataset, *index.NLRNL, *workload.Generator) {
	tb.Helper()
	return presetWithIndex(tb, 0.01)
}

func presetWithIndex(tb testing.TB, scale float64) (*gen.Dataset, *index.NLRNL, *workload.Generator) {
	tb.Helper()
	ds, err := gen.GeneratePreset("brightkite", scale)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.BuildNLRNL(ds.Graph)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, idx, workload.NewGenerator(ds, benchContentSeed)
}

// BenchmarkExplore runs the exact search over two fixed query batches;
// one op is one pass over the batch.
//
//   - paper-exact: the paper's cost model, 30 queries of uncapped
//     KTG-VKC-DEG over NLRNL on Brightkite/0.01 with |W_Q|=6, N=7 and
//     (p,k) rotating over (3,2), (4,3), (5,3).
//   - shard: one shard's share of a 2-way scatter, SearchPartial slice
//     0/2 with the capped bound on Brightkite/0.05, once per point of
//     the Table I grid (500 queries).
//
// Both report the explored nodes and index calls per op:
//
//	go test ./internal/core -run '^$' -bench Explore -benchmem
func BenchmarkExplore(b *testing.B) {
	b.Run("paper-exact", func(b *testing.B) {
		ds, idx, wl := brightkite(b)
		pk := [][2]int{{3, 2}, {4, 3}, {5, 3}}
		qs := make([]Query, 30)
		for i := range qs {
			qs[i] = Query{Keywords: wl.QueryKeywords(6), P: pk[i%len(pk)][0], K: pk[i%len(pk)][1], N: 7}
		}
		opts := Options{Oracle: idx, Ordering: OrderVKCDegree, UncappedPruneBound: true}
		benchBatch(b, len(qs), func(i int) (Stats, error) {
			r, err := Search(ds.Graph, ds.Attrs, qs[i], opts)
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, nil
		})
	})
	b.Run("shard", func(b *testing.B) {
		ds, qs, opts := shardBatch(b)
		slice := CandidateSlice{Index: 0, Count: 2}
		benchBatch(b, len(qs), func(i int) (Stats, error) {
			r, err := SearchPartial(ds.Graph, ds.Attrs, qs[i], opts, slice)
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, nil
		})
	})
	// shard-setup runs only the query setup of the shard batch's two
	// slices, 0/2 and 1/2: compile, S_R, the kernel and the root ranking.
	// setup_ns/query is the mean CompileTime + CandidateTime of a slice.
	b.Run("shard-setup", func(b *testing.B) {
		ds, qs, opts := shardBatch(b)
		var setup time.Duration
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for _, q := range qs {
				for idx := 0; idx < 2; idx++ {
					s, err := newSearcher(ds.Graph, ds.Attrs, q, opts, &CandidateSlice{Index: idx, Count: 2}, memoBudgetBytes)
					if err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					s.tally(0)
					setup += s.stats.CompileTime + s.stats.CandidateTime + time.Since(start)
				}
			}
		}
		b.ReportMetric(float64(setup.Nanoseconds())/float64(2*len(qs)*b.N), "setup_ns/query")
	})
}

// BenchmarkSearchBFS runs one heavy exact query without an index, so
// every distance check is a bounded BFS: capped KTG-VKC-DEG on
// Brightkite/0.2 (11,658 vertices) with p=5, k=2, N=100 over the six
// most popular keywords. One op is one search.
//
//	go test ./internal/core -run '^$' -bench SearchBFS
func BenchmarkSearchBFS(b *testing.B) {
	ds, err := gen.GeneratePreset("brightkite", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	// The six keywords the most vertices carry, ties to the lower id.
	kws := make([]keywords.ID, ds.Attrs.Vocabulary().Size())
	for i := range kws {
		kws[i] = keywords.ID(i)
	}
	slices.SortStableFunc(kws, func(x, y keywords.ID) int {
		return len(ds.Attrs.Posting(y)) - len(ds.Attrs.Posting(x))
	})
	q := Query{Keywords: kws[:6], P: 5, K: 2, N: 100}
	opts := Options{Oracle: index.NewBFSOracle(ds.Graph), Ordering: OrderVKCDegree}
	benchBatch(b, 1, func(int) (Stats, error) {
		r, err := Search(ds.Graph, ds.Attrs, q, opts)
		if err != nil {
			return Stats{}, err
		}
		return r.Stats, nil
	})
}

// shardBatch returns the shard batch: the Table I grid on
// Brightkite/0.05, capped KTG-VKC-DEG over NLRNL.
func shardBatch(tb testing.TB) (*gen.Dataset, []Query, Options) {
	ds, idx, wl := presetWithIndex(tb, 0.05)
	var qs []Query
	for _, p := range workload.SweepP {
		for _, k := range workload.SweepK {
			for _, w := range workload.SweepW {
				for _, n := range workload.SweepN {
					qs = append(qs, Query{Keywords: wl.QueryKeywords(w), P: p, K: k, N: n})
				}
			}
		}
	}
	return ds, qs, Options{Oracle: idx, Ordering: OrderVKCDegree}
}

// BenchmarkMergePartials merges the recorded offer streams of the shard
// batch's slices 0/2 and 1/2; one op merges all 500 queries.
//
//	go test ./internal/core -run '^$' -bench MergePartials -benchmem
func BenchmarkMergePartials(b *testing.B) {
	ds, qs, opts := shardBatch(b)
	parts := make([][]*PartialResult, len(qs))
	offers := 0
	for i, q := range qs {
		for idx := 0; idx < 2; idx++ {
			pr, err := SearchPartial(ds.Graph, ds.Attrs, q, opts, CandidateSlice{Index: idx, Count: 2})
			if err != nil {
				b.Fatal(err)
			}
			parts[i] = append(parts[i], pr)
			offers += len(pr.Offers)
		}
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, q := range qs {
			if _, exact, err := MergePartials(q.N, parts[i]); err != nil || !exact {
				b.Fatalf("query %d: exact=%v err=%v", i, exact, err)
			}
		}
	}
	b.ReportMetric(float64(offers), "offers/op")
}

func benchBatch(b *testing.B, n int, search func(i int) (Stats, error)) {
	var nodes, calls int64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i < n; i++ {
			st, err := search(i)
			if err != nil {
				b.Fatal(err)
			}
			nodes += st.Nodes
			calls += st.DistanceChecks
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(calls)/float64(b.N), "oracle_calls/op")
}
