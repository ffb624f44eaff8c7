package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ktg"
)

// Tracing lives entirely in the benchmark: a timing wrapper around the
// distance index, timing middleware around the handlers the benchmark
// mounts, and diffs of the /metrics page the program already serves.

// timedIndex times a sample of the Within calls of the index it wraps:
// the pairs whose hash falls in one of sampleEvery buckets. Timing every
// call, or counting calls in a shared counter, would cost more than the
// ~40 ns call itself; the search already counts its calls
// (SearchStats.DistanceChecks).
type timedIndex struct {
	ktg.DistanceIndex
	samples, ns atomic.Int64
}

const sampleEvery = 256

func (x *timedIndex) Within(u, v ktg.Vertex, k int) bool {
	if (u*2654435761^v)%sampleEvery != 0 {
		return x.DistanceIndex.Within(u, v, k)
	}
	start := time.Now()
	ok := x.DistanceIndex.Within(u, v, k)
	x.ns.Add(int64(time.Since(start)))
	x.samples.Add(1)
	return ok
}

// callNS is the mean sampled Within time, less the cost of reading the
// clock around it.
func (x *timedIndex) callNS() float64 {
	return max(0, ratio(float64(x.ns.Load()), float64(x.samples.Load()))-clockNS())
}

// clockNS measures what one time.Now/time.Since pair costs.
func clockNS() float64 {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		sum += time.Since(start)
	}
	return float64(sum.Nanoseconds()) / n
}

// exchange is one request a tap observed.
type exchange struct {
	path    string
	traceID string
	status  int
	dur     time.Duration
	body    []byte // response body, when the tap keeps bodies
}

// tap is timing middleware that records every request through it.
type tap struct {
	keepBody bool
	mu       sync.Mutex
	xs       []exchange
}

type tapWriter struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (w *tapWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.body != nil {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (t *tap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &tapWriter{ResponseWriter: w}
		if t.keepBody {
			tw.body = &bytes.Buffer{}
		}
		start := time.Now()
		next.ServeHTTP(tw, r)
		x := exchange{path: r.URL.Path, status: tw.status, dur: time.Since(start)}
		// Shard requests carry the coordinator's trace in traceparent
		// (00-<trace id>-<span id>-<flags>); the coordinator echoes its
		// own as X-Trace-Id.
		if parts := strings.Split(r.Header.Get("traceparent"), "-"); len(parts) == 4 {
			x.traceID = parts[1]
		} else {
			x.traceID = w.Header().Get("X-Trace-Id")
		}
		if tw.body != nil {
			x.body = tw.body.Bytes()
		}
		t.mu.Lock()
		t.xs = append(t.xs, x)
		t.mu.Unlock()
	})
}

// exchanges returns the recorded requests to path.
func (t *tap) exchanges(path string) []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []exchange
	for _, x := range t.xs {
		if x.path == path {
			out = append(out, x)
		}
	}
	return out
}

// searchTime is the search core's own share of a served search.
func searchTime(s ktg.SearchStats) time.Duration {
	return s.CompileTime + s.CandidateTime + s.ExploreTime
}

// promSample is one /metrics scrape: series name (labels included) to
// value.
type promSample map[string]float64

func scrapeMetrics(hc *http.Client, base string) (promSample, error) {
	res, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: status %d", base, res.StatusCode)
	}
	return parseMetrics(res.Body)
}

func parseMetrics(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// total sums every series of one metric name, whatever its labels.
func (p promSample) total(name string) float64 {
	var sum float64
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta is after − before for one metric name.
func delta(before, after promSample, name string) float64 {
	return after.total(name) - before.total(name)
}

// histQuantileDelta estimates the q-quantile over the observations a
// power-of-two histogram gained between two scrapes, reporting a
// bucket's upper bound. Observations beyond the histogram (requests it
// does not count, such as unqueued ones) count as zeros: total is the
// number of events the quantile is taken over.
func histQuantileDelta(before, after promSample, name string, total, q float64) float64 {
	zeros := total - delta(before, after, name+"_count")
	target := q * total
	if target <= zeros {
		return 0
	}
	prev, cur := buckets(before, name), buckets(after, name)
	for _, b := range cur {
		if zeros+b.cum-cumAt(prev, b.le) >= target {
			return b.le
		}
	}
	return 0
}

// bucket is one cumulative histogram bucket.
type bucket struct{ le, cum float64 }

// buckets lists a histogram's finite buckets in increasing order. Empty
// buckets are not rendered, so a missing bound has the cumulative count
// of the bucket below it.
func buckets(p promSample, name string) []bucket {
	const prefix = `_bucket{le="`
	var bs []bucket
	for series, v := range p {
		if !strings.HasPrefix(series, name+prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(series[len(name)+len(prefix):], `"}`), 64)
		if err != nil {
			continue // the +Inf bucket
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

func cumAt(bs []bucket, le float64) float64 {
	var cum float64
	for _, b := range bs {
		if b.le > le {
			break
		}
		cum = b.cum
	}
	return cum
}
