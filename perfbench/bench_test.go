package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ktg"
)

// pathNetwork is 0-1-2-3-4-5 with keyword "a" on even vertices, "b" on
// odd ones, and nothing on vertex 5.
func pathNetwork(t *testing.T) *ktg.Network {
	t.Helper()
	b := ktg.NewBuilder(6)
	for v := ktg.Vertex(0); v < 5; v++ {
		b.AddEdge(v, v+1)
	}
	for v := ktg.Vertex(0); v < 5; v++ {
		b.SetKeywords(v, []string{"a", "b"}[v%2])
	}
	nw, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestCheckerRejectsInfeasibleGroups(t *testing.T) {
	nw := pathNetwork(t)
	chk := newChecker(nw, nw)
	q := ktg.Query{Keywords: []string{"a", "b"}, GroupSize: 2, Tenuity: 2}
	valid := group{Members: []uint32{0, 3}, Covered: []string{"a", "b"}, QKC: 1}
	if err := chk.checkAnswer(q, []group{valid}); err != nil {
		t.Fatalf("feasible group rejected: %v", err)
	}
	for name, g := range map[string]group{
		"pair within k hops":  {Members: []uint32{0, 2}, Covered: []string{"a"}, QKC: 0.5},
		"wrong size":          {Members: []uint32{0, 3, 4}, Covered: []string{"a", "b"}, QKC: 1},
		"repeated member":     {Members: []uint32{0, 0}, Covered: []string{"a"}, QKC: 0.5},
		"uncovered member":    {Members: []uint32{1, 5}, Covered: []string{"b"}, QKC: 0.5},
		"wrong covered list":  {Members: []uint32{0, 3}, Covered: []string{"a"}, QKC: 1},
		"wrong coverage size": {Members: []uint32{0, 3}, Covered: []string{"a", "b"}, QKC: 0.5},
	} {
		if err := chk.checkAnswer(q, []group{valid, g}); err == nil {
			t.Errorf("%s: accepted %+v", name, g)
		}
	}
}

func TestLoadIsDeterministicPerSeed(t *testing.T) {
	d, err := brightkite001.profiles()
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]func(seed int64) any{
		"paper": func(seed int64) any { return paperQueries(d, seed) },
		"sweep": func(seed int64) any { return sweepQueries(d, seed) },
		"live":  func(seed int64) any { return newLiveSchedule(d, seed, 2*time.Second) },
	}
	for name, load := range loads {
		if a, b := load(1), load(1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different loads", name)
		}
		if a, b := load(1), load(2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same load", name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program prints %v", layers, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, workloadNames())
	}
}

// TestEveryPrintedMetricIsDeclared runs every workload briefly, traced
// and untraced, and requires the printed metrics to be exactly the
// BENCHMARK.json entries for that mode.
func TestEveryPrintedMetricIsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	want := map[string][]string{}
	for _, m := range b.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range b.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s exited %d:\n%s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w, trace, err)
			}
			var got []string
			for name, mv := range res.Metrics {
				got = append(got, name)
				if mv.Unit == "" {
					t.Errorf("%s trace=%s: %s has no unit", w, trace, name)
				}
			}
			sort.Strings(got)
			exp := append([]string(nil), want[trace]...)
			sort.Strings(exp)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Errorf("%s trace=%s printed %v, BENCHMARK.json declares %v", w, trace, got, exp)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func TestPoolLatencyIgnoresOneStalledRun(t *testing.T) {
	byQuery := map[int][]float64{}
	for qi, lat := range []float64{10, 20, 30} {
		for rep := 0; rep < 5; rep++ {
			byQuery[qi] = append(byQuery[qi], lat)
		}
	}
	byQuery[2][3] = 5000 // one run of one query stalls
	m := map[string]float64{}
	putPoolLatency(m, byQuery)
	if m["query_p50_ms"] != 20 || math.Abs(m["query_p95_ms"]-29) > 1e-9 || m["throughput_qps"] != 50 {
		t.Errorf("a stalled run moved the figures: %v", m)
	}
}

func TestSlicedLatencyIgnoresOneStalledSlice(t *testing.T) {
	const n = 1200
	window := 6 * time.Second
	var ss []sample
	for i := 0; i < n; i++ {
		at := time.Duration(i) * window / n
		lat := 2.0
		if at >= 2*time.Second && at < 3*time.Second {
			lat = 500 // one slice stalls
		}
		ss = append(ss, sample{at, lat})
	}
	m := map[string]float64{}
	putLatency(m, ss, window)
	if m["query_p95_ms"] != 2 || m["query_p50_ms"] != 2 || m["throughput_qps"] != 200 {
		t.Errorf("a stalled slice moved the medians: %v", m)
	}
	if m["query_p99_ms"] != 500 {
		t.Errorf("p99 over the whole window = %v, want the stall", m["query_p99_ms"])
	}
}
