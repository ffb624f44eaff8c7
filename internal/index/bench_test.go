package index

import (
	"testing"

	"ktg/internal/gen"
)

var buildSink any

// BenchmarkIndexBuild times full index builds on Brightkite/0.05, the
// serve-scatter dataset, whose NLRNL build dominates that workload's
// set-up. NL picks h from its sampled histogram, as servers do by
// default.
func BenchmarkIndexBuild(b *testing.B) {
	ds, err := gen.GeneratePreset("brightkite", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	b.Run("NLRNL", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, err := BuildNLRNL(g)
			if err != nil {
				b.Fatal(err)
			}
			buildSink = x
		}
	})
	b.Run("NL", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nl, err := BuildNL(g, NLOptions{})
			if err != nil {
				b.Fatal(err)
			}
			buildSink = nl
		}
	})
}
