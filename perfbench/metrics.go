package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"ktg"
)

// metricDef names one printed metric and its unit. The two tables below
// are the benchmark's whole vocabulary: the printer refuses any other
// name, and a test holds them equal to BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run (--trace 0) prints. Every workload
// reports every entry, and none is ever zero on a clean run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "queries/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"rss_peak_mb", "MiB"},
}

// perLayer is what a traced run (--trace 1) prints. A layer a workload
// does not exercise reports 0. query_p99_ms, mutation_p*_ms and
// fail_ratio are end-to-end figures that exist on only some workloads
// (or are 0 on a clean run), so they cannot be gated end to end; a traced
// run takes them from its untraced phase.
var perLayer = []metricDef{
	{"core.nodes_per_query", "count"},
	{"core.checks_per_query", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.filter_ratio", "ratio"},
	{"core.explore_ms", "ms"},
	{"core.candidate_ms", "ms"},
	{"index.within_ns", "ns"},
	{"index.within_share", "ratio"},
	{"index.bytes", "bytes"},
	{"index.build_s", "s"},
	{"server.self_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.invalidated_per_batch", "count"},
	{"shard.coord_self_ms", "ms"},
	{"shard.skew_ratio", "ratio"},
	{"shard.work_ratio", "ratio"},
	{"shard.offers_per_query", "count"},
	{"client.attempts_per_call", "count"},
	{"live.apply_ms", "ms"},
	{"live.affected_per_batch", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_batch", "bytes"},
	{"wal.checkpoints", "count"},
	{"wal.replay_s", "s"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"query_p99_ms", "ms"},
	{"mutation_p50_ms", "ms"},
	{"mutation_p95_ms", "ms"},
	{"fail_ratio", "ratio"},
}

// untracedExtras are the perLayer entries a traced run copies from its
// untraced phase.
var untracedExtras = []string{"query_p99_ms", "mutation_p50_ms", "mutation_p95_ms", "fail_ratio"}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics picks every metric of defs out of measured, failing when the
// workload did not measure one.
func selectMetrics(defs []metricDef, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := measured[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile interpolates linearly between the order statistics of xs
// (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssPeakMiB is the process's peak resident set size so far.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// coreAcc sums search statistics over the queries that ran a search.
type coreAcc struct {
	n                               int
	nodes, checks, pruned, filtered int64
	explore, candidate              time.Duration
}

func (a *coreAcc) add(s ktg.SearchStats) {
	a.n++
	a.nodes += s.Nodes
	a.checks += s.DistanceChecks
	a.pruned += s.Pruned
	a.filtered += s.Filtered
	a.explore += s.ExploreTime
	a.candidate += s.CandidateTime
}

func (a *coreAcc) put(m map[string]float64) {
	n := float64(a.n)
	m["core.nodes_per_query"] = ratio(float64(a.nodes), n)
	m["core.checks_per_query"] = ratio(float64(a.checks), n)
	m["core.prune_ratio"] = ratio(float64(a.pruned), float64(a.nodes))
	m["core.filter_ratio"] = ratio(float64(a.filtered), float64(a.checks))
	m["core.explore_ms"] = ratio(ms(a.explore), n)
	m["core.candidate_ms"] = ratio(ms(a.candidate), n)
}

// sample is one correct query answer: when it completed, counted from
// the start of the window, and its latency in ms.
type sample struct {
	at time.Duration
	ms float64
}

// Slicing: the window is cut into equal slices, one per minSliceSamples
// answers and at most maxSlices, and throughput and the latency
// percentiles are the medians of their per-slice values. A stall of a
// few seconds on a shared host then moves one slice, not the run, while
// every slice's p95 keeps ten samples beyond it.
const (
	minSliceSamples = 200
	maxSlices       = 6
)

// putPoolLatency records the query throughput and latency figures of a
// closed loop with one caller that cycles a fixed pool of queries.
// byQuery holds each pool query's latencies in ms. A query's latency is
// the median of its runs, so a host stall moves one run of a query, not
// the figures, and every run weighs the pool's queries alike whatever
// order the seed sends them in. p50 and p95 are taken over the per-query
// medians, and throughput is 1 ÷ their mean: what the loop completes per
// second when no run stalls. p99 is over every sample and only with at
// least 1000 of them.
func putPoolLatency(m map[string]float64, byQuery map[int][]float64) {
	var meds, all []float64
	for _, xs := range byQuery {
		meds = append(meds, median(xs))
		all = append(all, xs...)
	}
	m["throughput_qps"] = ratio(1000, mean(meds))
	m["query_p50_ms"] = quantile(meds, 0.50)
	m["query_p95_ms"] = quantile(meds, 0.95)
	m["query_p99_ms"] = 0
	if len(all) >= 1000 {
		m["query_p99_ms"] = quantile(all, 0.99)
	}
}

// putLatency records the query throughput and latency figures of an open
// loop. p99 is over the whole window and only with at least 1000 samples.
func putLatency(m map[string]float64, ss []sample, window time.Duration) {
	k := min(maxSlices, max(1, len(ss)/minSliceSamples))
	per := make([][]float64, k)
	all := make([]float64, len(ss))
	for i, s := range ss {
		j := min(k-1, int(int64(s.at)*int64(k)/int64(window)))
		per[j] = append(per[j], s.ms)
		all[i] = s.ms
	}
	var tput, p50, p95 []float64
	for _, xs := range per {
		tput = append(tput, float64(len(xs))*float64(k)/window.Seconds())
		p50 = append(p50, quantile(xs, 0.50))
		p95 = append(p95, quantile(xs, 0.95))
	}
	m["throughput_qps"] = median(tput)
	m["query_p50_ms"] = median(p50)
	m["query_p95_ms"] = median(p95)
	m["query_p99_ms"] = 0
	if len(all) >= 1000 {
		m["query_p99_ms"] = quantile(all, 0.99)
	}
}
