package core

import (
	"testing"

	"ktg/internal/gen"
	"ktg/internal/index"
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
		ds, idx, wl := presetWithIndex(b, 0.05)
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
		opts := Options{Oracle: idx, Ordering: OrderVKCDegree}
		slice := CandidateSlice{Index: 0, Count: 2}
		benchBatch(b, len(qs), func(i int) (Stats, error) {
			r, err := SearchPartial(ds.Graph, ds.Attrs, qs[i], opts, slice)
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, nil
		})
	})
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
			calls += st.OracleCalls
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(calls)/float64(b.N), "oracle_calls/op")
}
