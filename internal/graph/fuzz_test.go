package graph

import (
	"bytes"
	"strings"
	"testing"

	"ktg/internal/persist"
)

// FuzzReadEdgeList hardens the text parser: arbitrary input must either
// parse into a structurally valid graph or fail cleanly — never panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n3,4\n")
	f.Add("")
	f.Add("0 0\n0 1\n0 1\n")
	f.Add("999999 1\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		if g.NumVertices() > 0 {
			if err := Validate(g); err != nil {
				t.Fatalf("parsed graph invalid: %v", err)
			}
		}
	})
}

// FuzzReadBinary hardens the binary snapshot reader against corruption:
// an accepted input must be the saved container, unchanged, and decode
// to a graph that validates (the checksums and self-fingerprint make
// accept-but-different a CRC collision).
func FuzzReadBinary(f *testing.F) {
	golden := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	var saved bytes.Buffer
	if err := WriteBinary(&saved, golden); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()-1])
	f.Add([]byte{})
	f.Add([]byte("KTGG\x01"))
	f.Add([]byte(persist.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.Equal(data, saved.Bytes()) {
			t.Fatal("mutated container was accepted")
		}
		if err := Validate(g); err != nil {
			t.Fatalf("accepted snapshot fails validation: %v", err)
		}
	})
}

// FuzzMultiBFS checks the bit-parallel kernel against the single-source
// Traverser: on a small graph decoded from the input, the levels must
// give every source exactly its AllDistances (cut at maxHops, negative
// meaning unbounded), each level in ascending id and each vertex once
// per source.
func FuzzMultiBFS(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 4, 5}, []byte{0, 4}, int8(-1))
	f.Add(uint8(12), []byte{0, 1, 0, 2, 0, 3, 2, 3, 3, 4, 4, 6, 6, 7, 6, 9, 9, 10, 10, 11}, []byte{3}, int8(2))
	f.Add(uint8(64), []byte{0, 63, 63, 1, 1, 62, 5, 6}, []byte{63, 0, 1, 63}, int8(-1))
	f.Add(uint8(65), []byte{0, 64, 64, 3, 10, 20}, []byte{64, 3, 10}, int8(0))
	f.Add(uint8(129), []byte{1, 2, 2, 3, 3, 4, 128, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 128}, int8(3))
	f.Fuzz(func(t *testing.T, nv uint8, edges, srcBytes []byte, maxHops int8) {
		n := 1 + int(nv)%130
		b := NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(Vertex(int(edges[i])%n), Vertex(int(edges[i+1])%n))
		}
		g := b.Build()
		var sources []Vertex
		for _, s := range srcBytes {
			if len(sources) < MaxSources {
				sources = append(sources, Vertex(int(s)%n))
			}
		}
		got := make([][]int32, len(sources))
		for i, s := range sources {
			got[i] = make([]int32, n)
			for w := range got[i] {
				got[i][w] = -1
			}
			got[i][s] = 0
		}
		last := 0
		NewMultiBFS(n).Run(g, sources, int(maxHops), func(d int, verts []Vertex, masks []uint64) {
			if d != last+1 {
				t.Fatalf("level %d follows level %d", d, last)
			}
			last = d
			if len(verts) == 0 || len(verts) != len(masks) {
				t.Fatalf("level %d: %d vertices, %d masks", d, len(verts), len(masks))
			}
			for j, w := range verts {
				if j > 0 && verts[j-1] >= w {
					t.Fatalf("level %d not ascending: %v", d, verts)
				}
				m := masks[j]
				if m == 0 || (len(sources) < MaxSources && m>>len(sources) != 0) {
					t.Fatalf("level %d: vertex %d has mask %b for %d sources", d, w, m, len(sources))
				}
				for i := range sources {
					if m&(1<<i) == 0 {
						continue
					}
					if got[i][w] != -1 {
						t.Fatalf("source %d reaches %d at %d and again at %d", sources[i], w, got[i][w], d)
					}
					got[i][w] = int32(d)
				}
			}
		})
		tr := NewTraverser(n)
		for i, s := range sources {
			want := tr.AllDistances(g, s, nil)
			for w, d := range want {
				if maxHops >= 0 && d > int32(maxHops) {
					d = -1
				}
				if got[i][w] != d {
					t.Fatalf("source %d (%d of %d), vertex %d: kernel distance %d, AllDistances %d",
						s, i, len(sources), w, got[i][w], d)
				}
			}
		}
	})
}
