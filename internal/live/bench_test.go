package live

import (
	"testing"

	"ktg/internal/gen"
	"ktg/internal/index"
	"ktg/internal/workload"
)

// BenchmarkNLRNLApply applies one live-mixed edge batch to a clone of
// the Brightkite/0.01 NLRNL replica: eight effective ops, half of them
// inserts, drawn by workload.Mutator. Clone, the ops and Finalize, which
// repairs the marked vertices, are what Manager.Apply reports as its
// apply duration.
func BenchmarkNLRNLApply(b *testing.B) {
	ds, err := gen.GeneratePreset("brightkite", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	x, err := index.BuildNLRNL(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	r := NewNLRNLReplica(x)
	var ops []EdgeOp
	for _, op := range workload.NewMutator(ds.Graph, 2023).Batch(8, 0.5) {
		ops = append(ops, EdgeOp{Insert: op.Insert, U: op.U, V: op.V})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := r.Clone()
		for _, op := range ops {
			if ok, _ := w.Apply(op); !ok {
				b.Fatalf("op %v did not apply", op)
			}
		}
		if err := w.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}
