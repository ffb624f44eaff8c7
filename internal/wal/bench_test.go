package wal

import "testing"

// BenchmarkWALAppend appends one 8-op record, the live-mixed batch size,
// per iteration under each fsync policy: the log's share of every acked
// mutation's latency.
func BenchmarkWALAppend(b *testing.B) {
	ops := make([]EdgeOp, 8)
	for i := range ops {
		ops[i] = EdgeOp{Insert: i%2 == 0, U: uint32(i), V: uint32(i + 100)}
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		b.Run(p.String(), func(b *testing.B) {
			l, err := Open(Config{Dir: b.TempDir(), Base: testBase, Sync: p})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			if _, err := l.Replay(func(Record) error { return nil }, nil); err != nil {
				b.Fatal(err)
			}
			epoch := l.LastEpoch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch++
				if err := l.Append(Record{Epoch: epoch, Ops: ops}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
