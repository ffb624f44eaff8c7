package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ktg"
)

// group is one answer group as any search path reports it.
type group struct {
	Members []uint32 `json:"members"`
	Covered []string `json:"covered"`
	QKC     float64  `json:"qkc"`
}

// topology is the exact graph an answer is checked against: a ktg.Network
// or the live workload's mirror of one epoch.
type topology interface {
	NumVertices() int
	Neighbors(v uint32) []uint32
}

// checker verifies KTG answers against an exact graph and the keyword
// profiles, independently of any index the search used.
type checker struct {
	g        topology
	keywords func(v uint32) []string
	// seen[v] == stamp marks v visited by the current BFS.
	seen  []uint32
	stamp uint32
}

func newChecker(g topology, profiles *ktg.Network) *checker {
	return &checker{g: g, keywords: profiles.Keywords, seen: make([]uint32, g.NumVertices())}
}

// checkAnswer checks every group of one answer: exactly p distinct
// members, every pair more than k hops apart, every member covering a
// query keyword, and the reported coverage equal to a recount.
func (c *checker) checkAnswer(q ktg.Query, groups []group) error {
	for i, g := range groups {
		if err := c.checkGroup(q, g); err != nil {
			return fmt.Errorf("group %d %v: %w", i, g.Members, err)
		}
	}
	return nil
}

func (c *checker) checkGroup(q ktg.Query, g group) error {
	if len(g.Members) != q.GroupSize {
		return fmt.Errorf("has %d members, want %d", len(g.Members), q.GroupSize)
	}
	in := make(map[uint32]bool, len(g.Members))
	for _, v := range g.Members {
		if in[v] {
			return fmt.Errorf("member %d repeats", v)
		}
		in[v] = true
	}
	for _, v := range g.Members {
		if u, ok := c.memberWithin(v, q.Tenuity, in); ok {
			return fmt.Errorf("members %d and %d are within %d hops", v, u, q.Tenuity)
		}
	}

	query := make(map[string]bool, len(q.Keywords))
	for _, kw := range q.Keywords {
		query[kw] = true
	}
	covered := make(map[string]bool)
	for _, v := range g.Members {
		own := false
		for _, kw := range c.keywords(v) {
			if query[kw] {
				own = true
				covered[kw] = true
			}
		}
		if !own {
			return fmt.Errorf("member %d covers no query keyword", v)
		}
	}
	want := make([]string, 0, len(covered))
	for kw := range covered {
		want = append(want, kw)
	}
	sort.Strings(want)
	if fmt.Sprint(want) != fmt.Sprint(g.Covered) {
		return fmt.Errorf("reports covered %v, recount gives %v", g.Covered, want)
	}
	if qkc := float64(len(want)) / float64(len(query)); math.Abs(qkc-g.QKC) > 1e-9 {
		return fmt.Errorf("reports qkc %v, recount gives %v", g.QKC, qkc)
	}
	return nil
}

// memberWithin runs a BFS from v bounded at k hops and reports another
// group member it reaches.
func (c *checker) memberWithin(v uint32, k int, members map[uint32]bool) (uint32, bool) {
	c.stamp++
	c.seen[v] = c.stamp
	frontier := []uint32{v}
	for d := 0; d < k && len(frontier) > 0; d++ {
		var next []uint32
		for _, u := range frontier {
			for _, w := range c.g.Neighbors(u) {
				if c.seen[w] == c.stamp {
					continue
				}
				if members[w] {
					return w, true
				}
				c.seen[w] = c.stamp
				next = append(next, w)
			}
		}
		frontier = next
	}
	return 0, false
}

// fromResult converts an in-process answer to the wire shape.
func fromResult(gs []ktg.Group) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		out[i] = group{Members: g.Members, Covered: g.Covered, QKC: g.QKC}
	}
	return out
}

// canonical is the byte form two answers are compared in.
func canonical(gs []group) string {
	if gs == nil {
		gs = []group{}
	}
	b, err := json.Marshal(gs)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return string(b)
}

// coverageVector is the coverage count of each group in rank order.
func coverageVector(gs []group) []int {
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = len(g.Covered)
	}
	return out
}
