// Reviewers: the paper's headline scenario at realistic scale — select
// conflict-free reviewer panels from a DBLP-like collaboration network.
//
// This example demonstrates the full production path: generate (or load)
// a network, build an NLRNL index once and share it across searches,
// exclude the paper's authors and their collaborators with
// QueryVertices, and compare the plain top-N result with the diversified
// DKTG result.
//
// Run with:
//
//	go run ./examples/reviewers
package main

import (
	"fmt"
	"log"
	"time"

	"ktg"
)

func main() {
	// A scaled-down DBLP-like co-authorship network (~4,000 authors).
	net, err := ktg.GeneratePreset("dblp", 0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(net)

	// Build the NLRNL distance index once; every search below shares it.
	start := time.Now()
	idx, err := net.BuildNLRNL()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NLRNL index: %d entries, built in %v\n", idx.Entries(), time.Since(start).Round(time.Millisecond))

	// The paper under review is tagged with the dataset's five most
	// popular topics, and was written by authors 10 and 42: nobody
	// within 2 hops of either may review it.
	topics := net.PopularKeywords(5)
	authors := []ktg.Vertex{10, 42}
	query := ktg.Query{Keywords: topics, GroupSize: 3, Tenuity: 2, TopN: 3}
	fmt.Printf("paper topics: %v, authors: %v\n\n", topics, authors)

	start = time.Now()
	res, err := net.Search(query, ktg.SearchOptions{
		Index:         idx,
		QueryVertices: authors,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KTG-VKC-DEG panels (answered in %v):\n", time.Since(start).Round(time.Microsecond))
	printPanels(net, res.Groups)

	// The top-N panels usually overlap heavily; the diversified query
	// returns disjoint panels so a declined invitation has a fallback.
	start = time.Now()
	diverse, err := net.SearchDiverse(query, ktg.DiverseOptions{
		SearchOptions: ktg.SearchOptions{Index: idx, QueryVertices: authors},
		Gamma:         0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DKTG-Greedy panels (answered in %v, diversity %.2f, score %.2f):\n",
		time.Since(start).Round(time.Microsecond), diverse.Diversity, diverse.Score)
	printPanels(net, diverse.Groups)
}

func printPanels(net *ktg.Network, groups []ktg.Group) {
	if len(groups) == 0 {
		fmt.Println("  no feasible panel")
		return
	}
	for i, g := range groups {
		fmt.Printf("  panel %d (coverage %.2f): members %v, topics %v\n",
			i+1, g.QKC, g.Members, g.Covered)
	}
	fmt.Println()
}
