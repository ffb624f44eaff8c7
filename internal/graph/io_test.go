package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	input := `# SNAP-style comment
% matrix-market-style comment
0 1
1	2
2,3

3 0
`
	g, err := ReadEdgeList(strings.NewReader(input), 0)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices %d edges, want 4/4", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(2, 3) || !g.HasEdge(0, 3) {
		t.Error("edges missing")
	}
}

func TestReadEdgeListRespectsMinVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                // one field
		"a b\n",              // non-numeric
		"0 -1\n",             // negative
		"1 99999999999999\n", // overflow uint32
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q: expected error", in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("input %q: error %v does not name the line", in, err)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	requireSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := paperGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	requireSameGraph(t, g, g2)
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a graph at all"),
		[]byte("KTGG\x01"), // a magic other than the container's
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: ReadBinary accepted garbage", i)
		}
	}
}

func TestReadBinaryRejectsCorruptOffsets(t *testing.T) {
	g := FromEdges(3, [][2]Vertex{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip byte 24, inside the container's checksummed header.
	raw[24] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("ReadBinary accepted a corrupt header byte")
	}
}

// TestBinaryFlipEveryByteDetected proves the v2 container leaves no
// blind spots: flipping any single byte of a graph snapshot must make
// ReadBinary fail — there is no offset where corruption slips through.
func TestBinaryFlipEveryByteDetected(t *testing.T) {
	g := paperGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	golden := buf.Bytes()
	for off := range golden {
		mutated := bytes.Clone(golden)
		mutated[off] ^= 0xFF
		if _, err := ReadBinary(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}
}

func requireSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Neighbors(Vertex(v)), b.Neighbors(Vertex(v))
		if len(av) == 0 && len(bv) == 0 {
			continue
		}
		if !reflect.DeepEqual(av, bv) {
			t.Fatalf("neighbors of %d: %v vs %v", v, av, bv)
		}
	}
}
