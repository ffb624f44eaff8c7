package ktg

import (
	"fmt"
	"io"
	"log/slog"
	"sort"

	"ktg/internal/gen"
	"ktg/internal/graph"
	"ktg/internal/keywords"
)

// Vertex identifies a member of a Network. Identifiers are dense uint32
// values in [0, NumVertices).
type Vertex = uint32

// Network is an immutable attributed social network: an undirected
// simple graph plus a keyword profile per vertex.
type Network struct {
	g      *graph.Graph
	attrs  *keywords.Attributes
	name   string
	logger *slog.Logger
}

// SetLogger injects a structured logger used by every search and index
// build on this network unless a per-search SearchOptions.Logger
// overrides it. nil restores the package default (set with
// SetDefaultLogger; silent out of the box).
func (n *Network) SetLogger(l *slog.Logger) { n.logger = l }

// Name returns the network's label ("" unless set by a loader/generator).
func (n *Network) Name() string { return n.name }

// NumVertices returns the number of vertices.
func (n *Network) NumVertices() int { return n.g.NumVertices() }

// NumEdges returns the number of undirected edges.
func (n *Network) NumEdges() int { return n.g.NumEdges() }

// Degree returns the number of social ties of v.
func (n *Network) Degree(v Vertex) int { return n.g.Degree(v) }

// Neighbors returns v's direct contacts in increasing id order. The
// returned slice must not be modified.
func (n *Network) Neighbors(v Vertex) []Vertex { return n.g.Neighbors(v) }

// Keywords returns v's keyword profile in alphabetical order.
func (n *Network) Keywords(v Vertex) []string {
	names := n.attrs.KeywordNames(v)
	sort.Strings(names)
	return names
}

// VocabularySize returns the number of distinct keywords in the network.
func (n *Network) VocabularySize() int { return n.attrs.Vocabulary().Size() }

// AverageDegree returns 2|E|/|V|.
func (n *Network) AverageDegree() float64 { return n.g.AverageDegree() }

// withGraph returns a shallow copy of the network serving a different
// topology over the same keyword profiles and logger. The live
// mutation layer publishes one such copy per epoch; each copy is itself
// immutable, preserving the Network contract.
func (n *Network) withGraph(g *graph.Graph) *Network {
	c := *n
	c.g = g
	return &c
}

// Builder assembles a Network from edges and keyword profiles.
type Builder struct {
	gb    *graph.Builder
	attrs map[Vertex][]string
	n     int
}

// NewBuilder returns a Builder for a network with at least n vertices
// (more are implied by larger vertex ids in AddEdge/SetKeywords).
func NewBuilder(n int) *Builder {
	return &Builder{gb: graph.NewBuilder(n), attrs: make(map[Vertex][]string), n: n}
}

// AddEdge records the undirected social tie {u, v}. Self-loops and
// duplicates are ignored.
func (b *Builder) AddEdge(u, v Vertex) *Builder {
	b.gb.AddEdge(u, v)
	b.grow(u)
	b.grow(v)
	return b
}

// SetKeywords assigns vertex v's keyword profile, replacing any previous
// assignment.
func (b *Builder) SetKeywords(v Vertex, kws ...string) *Builder {
	b.attrs[v] = append([]string(nil), kws...)
	b.grow(v)
	return b
}

func (b *Builder) grow(v Vertex) {
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
}

// Build produces the immutable Network.
func (b *Builder) Build() (*Network, error) {
	g := b.gb.Build()
	size := g.NumVertices()
	if b.n > size {
		size = b.n
	}
	if size > g.NumVertices() {
		// Isolated high-id vertices exist only in attrs; rebuild with
		// the larger vertex count.
		gb := graph.NewBuilder(size)
		g.Edges(func(u, v Vertex) bool { gb.AddEdge(u, v); return true })
		g = gb.Build()
	}
	attrs := keywords.NewAttributes(size, nil)
	for v := 0; v < size; v++ {
		if kws, ok := b.attrs[Vertex(v)]; ok {
			attrs.Assign(Vertex(v), kws...)
		}
	}
	return &Network{g: g, attrs: attrs}, nil
}

// LoadNetwork reads a network from an edge list (SNAP text format; see
// WriteEdgeList) and an optional keyword attribute file (nil for a
// keyword-free network).
func LoadNetwork(edges io.Reader, attrs io.Reader) (*Network, error) {
	g, err := graph.ReadEdgeList(edges, 0)
	if err != nil {
		return nil, err
	}
	var a *keywords.Attributes
	if attrs != nil {
		a, err = keywords.ReadAttributes(attrs, g.NumVertices(), nil)
		if err != nil {
			return nil, err
		}
	} else {
		a = keywords.NewAttributes(g.NumVertices(), nil)
	}
	return &Network{g: g, attrs: a}, nil
}

// SaveEdgeList writes the network's topology in the format LoadNetwork
// reads.
func (n *Network) SaveEdgeList(w io.Writer) error {
	return graph.WriteEdgeList(w, n.g)
}

// SaveAttributes writes the network's keyword profiles in the format
// LoadNetwork reads.
func (n *Network) SaveAttributes(w io.Writer) error {
	return keywords.WriteAttributes(w, n.attrs)
}

// GeneratePreset synthesizes one of the paper's evaluation datasets at
// the given scale in (0, 1]; see Presets for the available names. The
// generated network reproduces each dataset's average degree and a
// Zipfian keyword distribution (the properties the KTG algorithms are
// sensitive to) and is deterministic for a given name and scale.
func GeneratePreset(name string, scale float64) (*Network, error) {
	d, err := gen.GeneratePreset(name, scale)
	if err != nil {
		return nil, err
	}
	return &Network{g: d.Graph, attrs: d.Attrs, name: d.Config.Name}, nil
}

// Presets lists the known dataset preset names.
func Presets() []string { return gen.PresetNames() }

// PopularKeywords returns up to limit keyword names ordered by how many
// vertices carry them — a convenient source of query keywords. A limit
// of zero or less yields an empty list.
func (n *Network) PopularKeywords(limit int) []string {
	vocab := n.attrs.Vocabulary()
	ids := make([]keywords.ID, 0, vocab.Size())
	for id := range vocab.Size() {
		if len(n.attrs.Posting(keywords.ID(id))) > 0 {
			ids = append(ids, keywords.ID(id))
		}
	}
	// Stable on ascending ids, so ties keep the lower id first.
	sort.SliceStable(ids, func(i, j int) bool {
		return len(n.attrs.Posting(ids[i])) > len(n.attrs.Posting(ids[j]))
	})
	out := make([]string, max(0, min(limit, len(ids))))
	for i := range out {
		out[i] = vocab.Name(ids[i])
	}
	return out
}

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("Network(%s: %d vertices, %d edges, %d keywords)",
		n.name, n.NumVertices(), n.NumEdges(), n.VocabularySize())
}
