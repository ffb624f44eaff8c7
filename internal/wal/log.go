package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ktg/internal/persist"
)

const manifestName = "MANIFEST.json"

// manifest is the log's root metadata, rewritten crash-atomically via
// persist.WriteFileAtomic on creation and at every checkpoint.
type manifest struct {
	Version int                 `json:"version"`
	Base    manifestFingerprint `json:"base"`
	// FirstSegment is the lowest retained segment index; lower-numbered
	// files are retirement leftovers and deleted on open.
	FirstSegment uint64 `json:"first_segment"`
	// CheckpointEpoch / CheckpointFile / Checkpoint describe the graph
	// snapshot recovery starts from; zero/empty means "the base graph".
	CheckpointEpoch uint64              `json:"checkpoint_epoch,omitempty"`
	CheckpointFile  string              `json:"checkpoint_file,omitempty"`
	Checkpoint      manifestFingerprint `json:"checkpoint_fingerprint,omitempty"`
}

// manifestFingerprint is persist.Fingerprint in JSON form; the CRC is a
// hex string so the value survives tooling that parses JSON numbers as
// float64.
type manifestFingerprint struct {
	Vertices   uint64 `json:"vertices"`
	AdjEntries uint64 `json:"adj_entries"`
	CRC        string `json:"crc"`
}

func toManifestFP(fp persist.Fingerprint) manifestFingerprint {
	return manifestFingerprint{Vertices: fp.Vertices, AdjEntries: fp.AdjEntries,
		CRC: strconv.FormatUint(fp.CRC, 16)}
}

func (m manifestFingerprint) fingerprint() (persist.Fingerprint, error) {
	crc, err := strconv.ParseUint(m.CRC, 16, 64)
	if err != nil {
		return persist.Fingerprint{}, corruptf("manifest fingerprint crc %q unparsable", m.CRC)
	}
	return persist.Fingerprint{Vertices: m.Vertices, AdjEntries: m.AdjEntries, CRC: crc}, nil
}

func segmentName(idx uint64) string  { return fmt.Sprintf("seg-%016x.wal", idx) }
func checkpointName(e uint64) string { return fmt.Sprintf("checkpoint-%016x.snap", e) }

func parseSegmentName(name string) (uint64, bool) {
	const pre, suf = "seg-", ".wal"
	if len(name) != len(pre)+16+len(suf) || !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(pre):len(pre)+16], 16, 64)
	if err != nil {
		return 0, false
	}
	return idx, name == segmentName(idx)
}

// writeHook is a test seam: when set, segment writes go through it so
// the fault suite can fail an append mid-write.
var writeHook func(f *os.File, p []byte) (int, error)

// Log is one dataset's write-ahead log. All methods are safe for
// concurrent use; Append calls serialize. The lifecycle is
// Open → Replay (exactly once) → Append/Checkpoint… → Close.
type Log struct {
	cfg Config
	dir string

	mu       sync.Mutex
	err      error // sticky poison; wraps ErrLogFailed
	man      manifest
	segments []uint64 // retained segment indexes, ascending
	f        *os.File // current append segment (nil until first append)
	segIndex uint64   // index of f when non-nil
	segBytes int64    // current size of f
	segData  int64    // offset where f's records start (its header size)
	nextSeg  uint64   // index the next rotation creates
	last     uint64   // epoch of the last durable-or-replayed record
	replayed bool
	closed   bool

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open attaches to (or initializes) the log in cfg.Dir. The directory
// must either be empty, or hold a log recorded against the same base
// graph fingerprint; retirement leftovers from a crashed checkpoint are
// cleaned up here. Call Replay before the first Append.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir is required")
	}
	l := &Log{cfg: cfg.withDefaults(), dir: cfg.Dir}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", l.dir, err)
	}
	if err := l.loadOrInitManifest(); err != nil {
		return nil, err
	}
	if err := l.scanDir(); err != nil {
		return nil, err
	}
	l.last = max(1, l.man.CheckpointEpoch)
	if l.cfg.Sync == SyncInterval {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func (l *Log) loadOrInitManifest() error {
	path := filepath.Join(l.dir, manifestName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		// A directory with segments but no manifest is not a fresh log;
		// refusing beats silently starting over on top of history.
		entries, derr := os.ReadDir(l.dir)
		if derr != nil {
			return fmt.Errorf("wal: reading %s: %w", l.dir, derr)
		}
		for _, e := range entries {
			if _, ok := parseSegmentName(e.Name()); ok {
				return corruptf("%s holds segments but no manifest", l.dir)
			}
		}
		l.man = manifest{Version: FormatVersion, Base: toManifestFP(l.cfg.Base), FirstSegment: 1}
		return l.writeManifest()
	}
	if err != nil {
		return fmt.Errorf("wal: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return corruptf("manifest unparsable: %v", err)
	}
	if m.Version != FormatVersion {
		return fmt.Errorf("wal: manifest version %d (this build reads %d): %w",
			m.Version, FormatVersion, persist.ErrVersionSkew)
	}
	base, err := m.Base.fingerprint()
	if err != nil {
		return err
	}
	if base != l.cfg.Base {
		return fmt.Errorf("wal: log in %s was recorded against graph %v, opened for %v: %w",
			l.dir, base, l.cfg.Base, persist.ErrFingerprintMismatch)
	}
	if m.FirstSegment == 0 {
		return corruptf("manifest first_segment is 0")
	}
	if (m.CheckpointEpoch == 0) != (m.CheckpointFile == "") {
		return corruptf("manifest checkpoint epoch/file disagree (%d vs %q)", m.CheckpointEpoch, m.CheckpointFile)
	}
	if m.CheckpointFile != "" {
		if _, err := m.Checkpoint.fingerprint(); err != nil {
			return err
		}
		if _, err := os.Stat(filepath.Join(l.dir, m.CheckpointFile)); err != nil {
			return corruptf("manifest names checkpoint %s but it is unreadable: %v", m.CheckpointFile, err)
		}
	}
	l.man = m
	return nil
}

func (l *Log) writeManifest() error {
	raw, err := json.MarshalIndent(l.man, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: encoding manifest: %w", err)
	}
	raw = append(raw, '\n')
	return persist.WriteFileAtomic(filepath.Join(l.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// scanDir deletes retirement leftovers (segments below the manifest's
// floor, checkpoints the manifest does not name) and verifies the
// retained segment sequence is gap-free.
func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", l.dir, err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if idx, ok := parseSegmentName(name); ok {
			if idx < l.man.FirstSegment {
				_ = os.Remove(filepath.Join(l.dir, name))
				continue
			}
			segs = append(segs, idx)
			continue
		}
		if len(name) > 11 && name[:11] == "checkpoint-" && name != l.man.CheckpointFile {
			_ = os.Remove(filepath.Join(l.dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i, idx := range segs {
		if idx != l.man.FirstSegment+uint64(i) {
			return corruptf("segment sequence has a gap: want %s, found %s",
				segmentName(l.man.FirstSegment+uint64(i)), segmentName(idx))
		}
	}
	l.segments = segs
	l.nextSeg = l.man.FirstSegment
	if n := len(segs); n > 0 {
		l.nextSeg = segs[n-1] + 1
	}
	return nil
}

// LastCheckpoint reports the manifest's checkpoint, if one exists.
func (l *Log) LastCheckpoint() (CheckpointInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.man.CheckpointFile == "" {
		return CheckpointInfo{}, false
	}
	fp, err := l.man.Checkpoint.fingerprint()
	if err != nil { // validated at Open; unreachable
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{
		Epoch: l.man.CheckpointEpoch,
		Path:  filepath.Join(l.dir, l.man.CheckpointFile),
		Graph: fp,
	}, true
}

// LastEpoch returns the epoch of the last durable record (or of the
// checkpoint/base if the log is empty).
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Replay scans every retained segment, verifies frames and epoch
// continuity, truncates a torn tail in the final segment, and hands
// each surviving record to apply in order. progress (optional) observes
// (applied, total) before the first apply and after each one, feeding
// the /readyz records_remaining surface. Replay must be called exactly
// once, before the first Append.
func (l *Log) Replay(apply func(Record) error, progress func(applied, total int)) (*ReplayStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("wal: Replay on closed log")
	}
	if l.replayed {
		return nil, errors.New("wal: Replay called twice")
	}
	l.replayed = true

	stats := &ReplayStats{StartEpoch: max(1, l.man.CheckpointEpoch), Segments: len(l.segments)}
	stats.EndEpoch = stats.StartEpoch

	var records []Record
	expect := stats.StartEpoch + 1
	for i, idx := range l.segments {
		isLast := i == len(l.segments)-1
		path := filepath.Join(l.dir, segmentName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		_, off, err := parseSegHeader(data, idx, l.cfg.Base)
		if err != nil {
			if !errors.Is(err, errTorn) {
				return nil, err
			}
			if !isLast {
				return nil, corruptf("%s damaged mid-log (%v)", segmentName(idx), err)
			}
			// The final segment died before its header landed: drop the
			// file; the lost bytes never framed a complete record.
			if rmErr := os.Remove(path); rmErr != nil {
				return nil, fmt.Errorf("wal: dropping torn %s: %w", segmentName(idx), rmErr)
			}
			l.segments = l.segments[:i]
			l.nextSeg = idx
			stats.TornTail = true
			stats.TornBytes += int64(len(data))
			mTornTail.Inc()
			break
		}
		goodOff := off
		for {
			rec, n, ok, err := parseRecord(data, goodOff)
			if err != nil {
				if !errors.Is(err, errTorn) {
					return nil, err
				}
				if !isLast {
					return nil, corruptf("%s damaged mid-log (%v)", segmentName(idx), err)
				}
				if trErr := os.Truncate(path, int64(goodOff)); trErr != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", segmentName(idx), trErr)
				}
				stats.TornTail = true
				stats.TornBytes += int64(len(data) - goodOff)
				data = data[:goodOff]
				mTornTail.Inc()
				break
			}
			if !ok {
				break
			}
			goodOff += n
			if rec.Epoch <= stats.StartEpoch {
				// A segment straddling the checkpoint: records at or
				// below the checkpoint epoch are already in the snapshot.
				continue
			}
			if rec.Epoch != expect {
				return nil, corruptf("%s: record publishes epoch %d, expected %d", segmentName(idx), rec.Epoch, expect)
			}
			expect++
			records = append(records, rec)
		}
		if isLast {
			// Reopen the final segment for appending where replay left off.
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return nil, fmt.Errorf("wal: reopening %s for append: %w", path, err)
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: seeking %s: %w", path, err)
			}
			l.f, l.segIndex, l.segBytes, l.segData = f, idx, int64(len(data)), int64(off)
		}
	}

	if progress != nil {
		progress(0, len(records))
	}
	for i, rec := range records {
		if err := apply(rec); err != nil {
			return nil, fmt.Errorf("wal: replaying record for epoch %d: %w", rec.Epoch, err)
		}
		stats.Records++
		stats.Ops += len(rec.Ops)
		stats.EndEpoch = rec.Epoch
		mReplayedRecords.Inc()
		mReplayedOps.Add(int64(len(rec.Ops)))
		if progress != nil {
			progress(i+1, len(records))
		}
	}
	l.last = stats.EndEpoch
	return stats, nil
}

// Append frames, writes, and (under SyncAlways) fsyncs one record. It
// returns only once the record is durable under the configured policy —
// the caller's ack barrier. Epochs must arrive in sequence: the live
// manager mints exactly one epoch per effective batch, so anything else
// is a caller bug and is refused before touching disk.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return errors.New("wal: Append on closed log")
	case l.err != nil:
		return l.err
	case !l.replayed:
		return errors.New("wal: Append before Replay")
	case len(rec.Ops) == 0:
		return errors.New("wal: refusing empty record; empty batches never publish an epoch")
	case len(rec.Ops) > maxRecordOps:
		return fmt.Errorf("wal: record with %d ops exceeds the %d-op frame bound", len(rec.Ops), maxRecordOps)
	case rec.Epoch != l.last+1:
		return fmt.Errorf("wal: append of epoch %d out of order (last durable epoch %d)", rec.Epoch, l.last)
	}

	buf := encodeRecord(rec)
	// Rotate when the record would overflow the segment, but never leave
	// a segment empty: an oversized record still lands somewhere.
	if l.f == nil || (l.segBytes > l.segData && l.segBytes+int64(len(buf)) > l.cfg.SegmentMaxBytes) {
		if err := l.rotateLocked(rec.Epoch); err != nil {
			return err
		}
	}
	if err := l.writeLocked(buf); err != nil {
		return err
	}
	if l.cfg.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	l.last = rec.Epoch
	mAppends.Inc()
	mAppendBytes.Add(int64(len(buf)))
	return nil
}

// writeLocked writes to the current segment; any failure poisons the
// log, because a partial frame may or may not have reached disk.
func (l *Log) writeLocked(p []byte) error {
	var (
		n   int
		err error
	)
	if writeHook != nil {
		n, err = writeHook(l.f, p)
	} else {
		n, err = l.f.Write(p)
	}
	l.segBytes += int64(n)
	if err != nil {
		l.err = fmt.Errorf("%w: writing %s: %v", ErrLogFailed, segmentName(l.segIndex), err)
		return l.err
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("%w: fsyncing %s: %v", ErrLogFailed, segmentName(l.segIndex), err)
		return l.err
	}
	mFsyncs.Inc()
	mFsyncLatency.Observe(time.Since(start).Nanoseconds())
	return nil
}

// rotateLocked finishes the current segment and starts the next one.
func (l *Log) rotateLocked(firstEpoch uint64) error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			l.err = fmt.Errorf("%w: closing %s: %v", ErrLogFailed, segmentName(l.segIndex), err)
			return l.err
		}
		l.f = nil
	}
	idx := l.nextSeg
	path := filepath.Join(l.dir, segmentName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		l.err = fmt.Errorf("%w: creating %s: %v", ErrLogFailed, segmentName(idx), err)
		return l.err
	}
	hdr := encodeSegHeader(segHeader{version: FormatVersion, base: l.cfg.Base, index: idx, firstEpoch: firstEpoch})
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		l.err = fmt.Errorf("%w: writing %s header: %v", ErrLogFailed, segmentName(idx), err)
		return l.err
	}
	l.f, l.segIndex, l.segBytes, l.segData = f, idx, int64(len(hdr)), int64(len(hdr))
	l.nextSeg = idx + 1
	l.segments = append(l.segments, idx)
	syncDir(l.dir) // make the new name itself durable
	return nil
}

// Checkpoint persists the live graph at epoch (which must be the last
// appended epoch), points the manifest at it, and retires every segment
// whose records it supersedes, bounding log growth and recovery time.
// write streams the graph snapshot (a v2 persist container); fp must
// fingerprint exactly that graph — recovery verifies the decoded
// snapshot against it before trusting the checkpoint.
func (l *Log) Checkpoint(epoch uint64, fp persist.Fingerprint, write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return errors.New("wal: Checkpoint on closed log")
	case l.err != nil:
		return l.err
	case !l.replayed:
		return errors.New("wal: Checkpoint before Replay")
	case epoch != l.last:
		return fmt.Errorf("wal: checkpoint at epoch %d but last durable epoch is %d", epoch, l.last)
	case epoch <= l.man.CheckpointEpoch:
		return fmt.Errorf("wal: checkpoint at epoch %d does not advance the current checkpoint (epoch %d)", epoch, l.man.CheckpointEpoch)
	}

	file := checkpointName(epoch)
	if err := persist.WriteFileAtomic(filepath.Join(l.dir, file), write); err != nil {
		return fmt.Errorf("wal: writing checkpoint for epoch %d: %w", epoch, err)
	}
	// Rotate so every earlier segment holds only records ≤ epoch and can
	// be retired wholesale.
	if err := l.rotateLocked(epoch + 1); err != nil {
		return err
	}
	old := l.man
	l.man.CheckpointEpoch = epoch
	l.man.CheckpointFile = file
	l.man.Checkpoint = toManifestFP(fp)
	l.man.FirstSegment = l.segIndex
	if err := l.writeManifest(); err != nil {
		// The old manifest is still authoritative on disk; roll the
		// in-memory copy back and let scanDir clean the stray snapshot
		// on the next open. The log itself stays usable.
		l.man = old
		return fmt.Errorf("wal: committing checkpoint manifest: %w", err)
	}
	retired := 0
	for _, idx := range l.segments {
		if idx < l.man.FirstSegment {
			_ = os.Remove(filepath.Join(l.dir, segmentName(idx)))
			retired++
		}
	}
	l.segments = l.segments[retired:]
	if old.CheckpointFile != "" {
		_ = os.Remove(filepath.Join(l.dir, old.CheckpointFile))
	}
	syncDir(l.dir)
	mCheckpoints.Inc()
	mSegmentsRetired.Add(int64(retired))
	return nil
}

// Close flushes and releases the log. A closed log refuses every later
// operation; the data on disk remains valid for a future Open.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.f != nil && l.err == nil {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: final sync: %w", serr)
		}
	}
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: closing segment: %w", cerr)
		}
		l.f = nil
	}
	stop := l.syncStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	return err
}

// syncLoop is the SyncInterval background fsyncer.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.syncStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
