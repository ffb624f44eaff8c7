// Package persist implements the framed snapshot container (format v2)
// that graph snapshots, and so the WAL's checkpoints, are written in,
// plus the crash-atomic file write and the sentinel errors the WAL
// shares.
//
// A container is laid out as
//
//	magic    8 bytes  "KTGSNAP\x00"
//	header   u32 length | header bytes | u32 CRC32C(header bytes)
//	section  'S' | u8 nameLen | name | chunks | terminator   (repeated)
//	end      'E' | strict EOF (any trailing byte is corruption)
//
// where the header records the format version, the snapshot kind, one
// builder parameter (0 for a graph), and a fingerprint of the graph the
// payload was built from (vertex count, adjacency length, CRC64 of the
// CSR arrays). Section payloads are split into chunks
//
//	u32 len (1..maxChunkLen) | payload | u32 CRC32C(payload)
//
// terminated by a zero length followed by u64 total payload length and
// u32 CRC32C of the whole payload. Readers verify each chunk's checksum
// before handing its bytes to the consumer, so a deserializer never
// parses corrupt data, and Close enforces the end frame plus strict
// EOF, so truncation and trailing garbage are both surfaced.
//
// All corruption findings wrap ErrCorrupt; a recognised container with
// an unsupported version wraps ErrVersionSkew; loaders that compare the
// header fingerprint against a live graph report ErrFingerprintMismatch.
// Callers match them with errors.Is to tell damage from skew.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
)

// Magic identifies a framed snapshot container. The format version is
// carried in the header, not the magic, so version skew is reported as
// ErrVersionSkew rather than "bad magic".
const Magic = "KTGSNAP\x00"

// FormatVersion is the container revision this package reads and, by
// default, writes. Bump it when the layout changes incompatibly.
const FormatVersion = 2

const (
	frameSection = 'S'
	frameEnd     = 'E'

	// maxChunkLen bounds a single payload chunk: writers emit
	// writeChunkLen-sized chunks and readers reject anything larger, so
	// a forged length field cannot force a huge allocation.
	maxChunkLen   = 1 << 20
	writeChunkLen = 256 << 10

	// maxNameLen bounds kind and section names.
	maxNameLen = 64
	// maxHeaderLen bounds the encoded header block.
	maxHeaderLen = 256
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrCorrupt marks any integrity failure: bad magic, checksum
	// mismatch, truncation, framing violations, or trailing garbage.
	ErrCorrupt = errors.New("snapshot corrupt")
	// ErrVersionSkew marks a well-formed container whose format version
	// this build does not understand.
	ErrVersionSkew = errors.New("snapshot format version unsupported")
	// ErrFingerprintMismatch marks a verified container that was built
	// from a different graph than the one supplied at load time.
	ErrFingerprintMismatch = errors.New("snapshot graph fingerprint mismatch")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("persist: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

var (
	crc32cTable = crc32.MakeTable(crc32.Castagnoli)
	crc64Table  = crc64.MakeTable(crc64.ECMA)
)

// Fingerprint identifies the graph a snapshot was built from. Two
// graphs with equal fingerprints have, up to CRC64 collision, identical
// CSR representations (same vertex count, same sorted neighbor lists).
type Fingerprint struct {
	// Vertices is the vertex count n.
	Vertices uint64
	// AdjEntries is the total adjacency length (2x the edge count).
	AdjEntries uint64
	// CRC is a CRC64-ECMA over the degree-prefixed neighbor stream.
	CRC uint64
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("n=%d m=%d crc=%016x", f.Vertices, f.AdjEntries, f.CRC)
}

// Topology is the minimal graph surface needed to fingerprint a graph.
// graph.Topology satisfies it (graph.Vertex is a uint32 alias); persist
// deliberately avoids importing the graph package so that graph can
// depend on persist.
type Topology interface {
	NumVertices() int
	Neighbors(v uint32) []uint32
}

// FingerprintOf computes the graph fingerprint in one linear pass:
// every vertex contributes its degree followed by its sorted neighbor
// list, little endian, to a CRC64.
func FingerprintOf(t Topology) Fingerprint {
	h := crc64.New(crc64Table)
	var buf [4]byte
	u32 := func(x uint32) {
		buf[0] = byte(x)
		buf[1] = byte(x >> 8)
		buf[2] = byte(x >> 16)
		buf[3] = byte(x >> 24)
		h.Write(buf[:])
	}
	n := t.NumVertices()
	u32(uint32(n))
	var m uint64
	for v := 0; v < n; v++ {
		ns := t.Neighbors(uint32(v))
		m += uint64(len(ns))
		u32(uint32(len(ns)))
		for _, w := range ns {
			u32(w)
		}
	}
	return Fingerprint{Vertices: uint64(n), AdjEntries: m, CRC: h.Sum64()}
}

// Header is the container's self-description, written right after the
// magic and protected by its own CRC32C.
type Header struct {
	// Version is the container format revision. NewWriter fills in
	// FormatVersion when zero; NewReader rejects anything else with
	// ErrVersionSkew.
	Version uint32
	// Kind names the payload type ("graph").
	Kind string
	// Param carries one builder parameter. No writer sets it any more
	// (a graph has none, so it is 0), but it stays in the layout: the
	// checkpoint files on disk carry it, and changing the header would
	// need a new FormatVersion.
	Param uint32
	// Graph fingerprints the topology the payload was built from.
	Graph Fingerprint
}

// encodedHeader serializes the header payload (excluding length prefix
// and CRC).
func (h Header) encode() ([]byte, error) {
	if len(h.Kind) == 0 || len(h.Kind) > maxNameLen {
		return nil, fmt.Errorf("persist: invalid kind %q", h.Kind)
	}
	out := make([]byte, 0, 64)
	out = appendU32(out, h.Version)
	out = append(out, byte(len(h.Kind)))
	out = append(out, h.Kind...)
	out = appendU32(out, h.Param)
	out = appendU64(out, h.Graph.Vertices)
	out = appendU64(out, h.Graph.AdjEntries)
	out = appendU64(out, h.Graph.CRC)
	return out, nil
}

func decodeHeader(b []byte) (Header, error) {
	var h Header
	var ok bool
	if h.Version, b, ok = takeU32(b); !ok {
		return h, corruptf("header truncated")
	}
	if len(b) < 1 {
		return h, corruptf("header truncated")
	}
	kindLen := int(b[0])
	b = b[1:]
	if kindLen == 0 || kindLen > maxNameLen || len(b) < kindLen {
		return h, corruptf("header kind length %d invalid", kindLen)
	}
	h.Kind, b = string(b[:kindLen]), b[kindLen:]
	if h.Param, b, ok = takeU32(b); !ok {
		return h, corruptf("header truncated")
	}
	if h.Graph.Vertices, b, ok = takeU64(b); !ok {
		return h, corruptf("header truncated")
	}
	if h.Graph.AdjEntries, b, ok = takeU64(b); !ok {
		return h, corruptf("header truncated")
	}
	if h.Graph.CRC, b, ok = takeU64(b); !ok {
		return h, corruptf("header truncated")
	}
	if len(b) != 0 {
		return h, corruptf("header has %d trailing bytes", len(b))
	}
	return h, nil
}

func appendU32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

func appendU64(b []byte, x uint64) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

func takeU32(b []byte) (uint32, []byte, bool) {
	if len(b) < 4 {
		return 0, b, false
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, b[4:], true
}

func takeU64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	lo, _, _ := takeU32(b)
	hi, _, _ := takeU32(b[4:])
	return uint64(lo) | uint64(hi)<<32, b[8:], true
}
