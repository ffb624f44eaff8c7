package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ktg/internal/persist"
)

// FuzzReplayWAL feeds arbitrary bytes to the log as segment content,
// under the same contract FuzzReadBinary enforces for checkpoints:
// recovery must never panic, every rejection must be a typed error,
// and an accepted log must replay to an internally consistent, and —
// for the untouched golden bytes — byte-identical, view.
func FuzzReplayWAL(f *testing.F) {
	golden := f.TempDir()
	buildGolden := func(dir string) (segBytes []byte, finalState string) {
		l, err := Open(Config{Dir: dir, Base: testBase, Sync: SyncOff})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := l.Replay(func(Record) error { return nil }, nil); err != nil {
			f.Fatal(err)
		}
		m := newMirror(1)
		for e := uint64(2); e <= 9; e++ {
			rec := Record{Epoch: e, Ops: []EdgeOp{
				{Insert: true, U: uint32(e), V: uint32(e) + 100},
				{Insert: false, U: uint32(e) - 1, V: uint32(e) + 99},
			}}
			if e == 2 {
				rec.Ops = rec.Ops[:1] // nothing to delete yet
			}
			if err := l.Append(rec); err != nil {
				f.Fatal(err)
			}
			m.apply(rec)
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
		if err != nil {
			f.Fatal(err)
		}
		return raw, m.snapshot()
	}
	goldenSeg, goldenState := buildGolden(golden)

	f.Add(goldenSeg)
	f.Add(goldenSeg[:len(goldenSeg)/2])
	flipped := append([]byte(nil), goldenSeg...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// A fresh manifest bound to testBase, then the fuzz input as the
		// log's only segment.
		l, err := Open(Config{Dir: dir, Base: testBase, Sync: SyncOff})
		if err != nil {
			t.Fatalf("initializing empty log: %v", err)
		}
		l.Close()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}

		m, stats, l2, err := recoverDir(dir)
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) &&
				!errors.Is(err, persist.ErrVersionSkew) &&
				!errors.Is(err, persist.ErrFingerprintMismatch) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		defer l2.Close()
		if stats.EndEpoch < stats.StartEpoch || stats.EndEpoch-stats.StartEpoch != uint64(stats.Records) {
			t.Fatalf("inconsistent replay: epochs %d..%d but %d records",
				stats.StartEpoch, stats.EndEpoch, stats.Records)
		}
		if m.epoch != stats.EndEpoch {
			t.Fatalf("mirror epoch %d disagrees with stats end epoch %d", m.epoch, stats.EndEpoch)
		}
		// Accepted bytes ⇒ checksums verified ⇒ the untouched golden
		// segment must reproduce the golden state bit for bit.
		if bytes.Equal(data, goldenSeg) && m.snapshot() != goldenState {
			t.Fatalf("golden segment replayed to a different state:\n  got  %q\n  want %q",
				m.snapshot(), goldenState)
		}
		// The accepted log must keep working: the next epoch appends.
		if err := l2.Append(Record{Epoch: stats.EndEpoch + 1, Ops: []EdgeOp{{Insert: true, U: 1, V: 2}}}); err != nil {
			t.Fatalf("append after accepted replay: %v", err)
		}
	})
}
