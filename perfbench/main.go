// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed window, checks every answer the system gives, and prints
// the workload's metrics as one JSON object on the last line of standard
// output (a readable report goes to standard error):
//
//	perfbench --workload paper-exact --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	paper-exact    in-process KTG-VKC-DEG under the paper's uncapped
//	               Theorem 2 bound on Brightkite/0.01, one caller
//	serve-scatter  a coordinator over two server shards on loopback,
//	               Table I queries on Brightkite/0.05, one closed-loop client
//	live-mixed     one durable mutable server: open-loop reads beside
//	               edge batches, then a WAL restart check
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
// runs the workload twice on the same seed, for half the window each:
// untraced, then with the benchmark's index wrapper, handler middleware
// and /metrics diffs installed, and prints the per-layer metrics. The
// exit code is non-zero when any answer fails a check or the open-loop
// generator fell behind its schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// runConfig is one pass of a workload.
type runConfig struct {
	seed      int64
	window    time.Duration
	traced    bool
	setupReps int
	// scratch is a directory inside the working tree for files the
	// workload writes (the WAL).
	scratch string
}

// outcome is what one pass measured and checked.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	mismatches        []string
	invalid           string
	// speed is the figure the trace overhead compares: throughput for a
	// closed loop, inverse mean query latency for an open loop.
	speed float64
}

func newOutcome() *outcome {
	o := &outcome{metrics: map[string]float64{}}
	for _, d := range perLayer {
		o.metrics[d.name] = 0
	}
	return o
}

// mismatch records an answer that failed a check. It is also a failed op.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) finish() {
	o.metrics["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-exact":   runPaper,
	"serve-scatter": runScatter,
	"live-mixed":    runLive,
}

// An untraced run sets up at least setupReps times and goes on until its
// set-ups have taken setupBudget, at most maxSetupReps times; it reports
// the median. A set-up of a few tens of ms then has a median of many.
const (
	setupReps    = 5
	maxSetupReps = 25
	setupBudget  = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 25, "length of the measured window")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	scratch, err := makeScratch()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, setupReps: setupReps, scratch: scratch}
	var (
		o    *outcome
		defs = endToEnd
	)
	if *trace == 0 {
		o, err = w(cfg)
	} else {
		defs = perLayer
		o, err = tracedRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	metrics, err := selectMetrics(defs, o.metrics)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(stderr, *name, cfg, *trace == 1, o)
	res := result{
		Correct:   len(o.mismatches) == 0 && o.invalid == "",
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun runs the workload untraced and then traced, half the window
// each, and reports the traced pass's layers with the untraced pass's
// end-to-end extras and the ratio between the two.
func tracedRun(w workloadFunc, cfg runConfig) (*outcome, error) {
	cfg.window /= 2
	cfg.setupReps = 1
	base, err := w(cfg)
	if err != nil {
		return nil, err
	}
	cfg.traced = true
	o, err := w(cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range untracedExtras {
		o.metrics[name] = base.metrics[name]
	}
	o.metrics["bench.trace_overhead"] = ratio(base.speed, o.speed)
	o.attempted += base.attempted
	o.failed += base.failed
	o.mismatches = append(base.mismatches, o.mismatches...)
	if o.invalid == "" {
		o.invalid = base.invalid
	}
	return o, nil
}

// makeScratch creates a fresh directory under .bench_build in the
// working directory, the root of the checkout being measured.
func makeScratch() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the run's metrics with their units: the end-to-end
// ones, including those only some workloads have, or the per-layer ones.
func report(w io.Writer, name string, cfg runConfig, traced bool, o *outcome) {
	fmt.Fprintf(w, "%s seed=%d window=%v traced=%v: attempted %d, failed %d\n",
		name, cfg.seed, cfg.window, traced, o.attempted, o.failed)
	defs := perLayer
	if !traced {
		defs = append([]metricDef(nil), endToEnd...)
		for _, d := range perLayer {
			if slices.Contains(untracedExtras, d.name) {
				defs = append(defs, d)
			}
		}
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, o.metrics[d.name], d.unit)
	}
	for _, m := range o.mismatches {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", m)
	}
	if o.invalid != "" {
		fmt.Fprintf(w, "  RUN INVALID: %s\n", o.invalid)
	}
}

// benchHTTP is the benchmark's own HTTP client: a pool deep enough that
// open-loop requests never wait for a connection.
var benchHTTP = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        128,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     30 * time.Second,
}}
