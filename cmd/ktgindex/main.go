// Command ktgindex builds and inspects the NL and NLRNL social-distance
// indexes.
//
// Examples:
//
//	ktgindex -preset gowalla -scale 0.05           # build both, report stats
//	ktgindex -preset dblp -kind nlrnl              # build NLRNL only
//	ktgindex -edges g.edges -kind nl -check 3,5,2  # is dist(3,5) <= 2?
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ktg"
	"ktg/internal/cliutil"
)

func main() {
	var (
		preset = flag.String("preset", "", "generate this preset instead of loading files")
		scale  = flag.Float64("scale", 0.05, "preset scale factor")
		edges  = flag.String("edges", "", "edge-list file")
		kind   = flag.String("kind", "both", "index kind: nl, nlrnl, both")
		check  = flag.String("check", "", "u,v,k triple: report whether dist(u,v) <= k")
		debug  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while building")
	)
	flag.Parse()

	cliutil.MustChoice("ktgindex", "kind", *kind, "nl", "nlrnl", "both")
	if *preset != "" {
		cliutil.MustChoice("ktgindex", "preset", *preset, ktg.Presets()...)
		cliutil.MustScale("ktgindex", *scale)
	}

	if *debug != "" {
		addr, _, err := ktg.StartDebugServer(*debug)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ktgindex: debug server on %s (/metrics /debug/vars /debug/pprof/)\n", addr)
	}

	net, err := loadNetwork(*preset, *scale, *edges)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", net)

	var built []ktg.DistanceIndex
	switch *kind {
	case "nl", "both":
		start := time.Now()
		nl, err := net.BuildNL(0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NL:    h=%d, %d entries, %s, built in %v\n",
			nl.H(), nl.Entries(), formatBytes(nl.SpaceBytes()), time.Since(start).Round(time.Millisecond))
		built = append(built, nl)
		if *kind == "nl" {
			break
		}
		fallthrough
	case "nlrnl":
		start := time.Now()
		x, err := net.BuildNLRNL()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NLRNL: %d entries, %s, built in %v\n",
			x.Entries(), formatBytes(x.SpaceBytes()), time.Since(start).Round(time.Millisecond))
		built = append(built, x)
	default:
		fatal(fmt.Errorf("unknown index kind %q", *kind))
	}

	if *check != "" {
		parts := strings.Split(*check, ",")
		if len(parts) != 3 {
			fatal(errors.New("-check wants u,v,k"))
		}
		u, err1 := strconv.ParseUint(parts[0], 10, 32)
		v, err2 := strconv.ParseUint(parts[1], 10, 32)
		k, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			fatal(errors.New("-check wants numeric u,v,k"))
		}
		for _, idx := range built {
			fmt.Printf("%s: dist(%d,%d) <= %d: %v\n",
				idx.Name(), u, v, k, idx.Within(uint32(u), uint32(v), k))
		}
	}
}

func loadNetwork(preset string, scale float64, edges string) (*ktg.Network, error) {
	if preset != "" {
		return ktg.GeneratePreset(preset, scale)
	}
	if edges == "" {
		return nil, errors.New("need -preset or -edges")
	}
	f, err := os.Open(edges)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ktg.LoadNetwork(f, nil)
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ktgindex:", err)
	os.Exit(1)
}
