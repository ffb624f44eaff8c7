package ktg

import (
	"ktg/internal/index"
	"ktg/internal/persist"
)

// SnapshotOutcome reports how a LoadOrBuild call obtained its index:
// whether the on-disk snapshot was used, why it was rejected if not,
// and whether the rebuilt index was re-persisted. Reason is one of
// "loaded", "missing", "version", "fingerprint", "param", "corrupt".
type SnapshotOutcome = index.LoadOutcome

// LoadOrBuildNL returns an NL index from the snapshot at path when it
// is present, uncorrupted, and matches this network (and h, when h > 0)
// — and otherwise rebuilds it and crash-atomically re-saves the fresh
// snapshot over path. Snapshot problems never fail the call: they are
// classified in the outcome (and on the ktg_index_snapshot_* metrics)
// and the index is rebuilt from the graph instead. Only a rebuild
// failure returns an error.
func (n *Network) LoadOrBuildNL(path string, h int) (*NLIndex, SnapshotOutcome, error) {
	nl, out, err := index.LoadOrBuildNL(path, n.g, index.NLOptions{H: h, Logger: n.logger})
	if err != nil {
		return nil, out, err
	}
	return &NLIndex{nl: nl}, out, nil
}

// LoadOrBuildNLRNL is LoadOrBuildNL for the NLRNL index.
func (n *Network) LoadOrBuildNLRNL(path string) (*NLRNLIndex, SnapshotOutcome, error) {
	x, out, err := index.LoadOrBuildNLRNL(path, n.g, index.NLRNLOptions{Logger: n.logger})
	if err != nil {
		return nil, out, err
	}
	return &NLRNLIndex{x: x}, out, nil
}

// SaveFile persists the index to path crash-atomically: the bytes are
// written to a temp file in the same directory, fsynced, and renamed
// into place, so a crash mid-save leaves any previous snapshot intact.
func (x *NLIndex) SaveFile(path string) error {
	return persist.WriteFileAtomic(path, x.nl.Save)
}

// SaveFile persists the index to path crash-atomically (see
// NLIndex.SaveFile).
func (x *NLRNLIndex) SaveFile(path string) error {
	return persist.WriteFileAtomic(path, x.x.Save)
}
