// Command ktgload replays a query workload against a running ktgserver
// through the resilient internal/client and reports latency quantiles
// plus resilience counters (retries, Retry-After honors, hedge wins,
// breaker trips). It is the measurement half of the chaos story: point
// it at a `ktgserver -chaos ...` and it proves — or disproves — that
// the client absorbs a configured fault rate without losing queries.
//
// The workload comes from internal/workload: either regenerated
// deterministically from the same preset/scale the server loaded (the
// preset generator is deterministic, so keyword ids line up), or
// replayed from a file written by workload.SaveQueries.
//
// With -mutate-rate the replay becomes a mixed read/write stream:
// that fraction of operations are POST /v1/edges batches (generated
// against a local mirror of the server's graph so every op is
// effective), and the report adds mutation latency quantiles, applied/
// ignored counts, the highest epoch reached, and epoch-skew retries.
//
// Usage:
//
//	ktgload -addr 127.0.0.1:8080 -preset brightkite -scale 0.02 -queries 50
//	ktgload -addr :8080 -replay queries.txt -concurrency 8 -hedge-delay 25ms
//	ktgload -addr :8080 -mutate-rate 0.3 -mutate-batch 8
//
// Exit status is non-zero if any query is lost (no answer within
// -patience) or any answer is malformed (a group not of exactly p
// members in ascending order, covered keywords outside the query, a QKC
// outside [0,1]).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ktg/internal/client"
	"ktg/internal/cliutil"
	"ktg/internal/gen"
	"ktg/internal/obs"
	"ktg/internal/server"
	"ktg/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "server address (host:port or full http:// URL)")
		preset      = flag.String("preset", "brightkite", "dataset preset the server is serving (keywords are sampled from a local regeneration)")
		scale       = flag.Float64("scale", 0.02, "preset scale factor; must match the server's -scale")
		replayPath  = flag.String("replay", "", "replay query keyword ids from this workload.SaveQueries file instead of sampling")
		queries     = flag.Int("queries", 50, "number of queries to run")
		concurrency = flag.Int("concurrency", 4, "concurrent in-flight queries")
		seed        = flag.Int64("seed", 42, "workload + jitter seed")
		groupSize   = flag.Int("p", workload.DefaultParams.P, "group size p")
		tenuity     = flag.Int("k", workload.DefaultParams.K, "tenuity constraint k")
		kwCount     = flag.Int("w", workload.DefaultParams.W, "query keyword count |W_Q|")
		topN        = flag.Int("n", 0, "top-N (0 = single-group /v1/query)")
		diverse     = flag.Bool("diverse", false, "hit /v1/diverse instead of /v1/query (implies -n if unset)")
		algorithm   = flag.String("algorithm", "", "algorithm override passed to the server (empty = server default)")
		patience    = flag.Duration("patience", 2*time.Minute, "total wall-clock budget per query, outer retries included")
		attemptTO   = flag.Duration("attempt-timeout", 10*time.Second, "per-HTTP-attempt timeout")
		maxAttempts = flag.Int("max-attempts", 6, "client attempts per logical call")
		hedgeDelay  = flag.Duration("hedge-delay", 0, "launch a hedged second attempt after this delay (0 = off)")
		verbose     = flag.Bool("v", false, "log every query result")
		traceExport = flag.String("trace-export", "", "append the client-side trace of every query (attempts, hedges, retries) to this file as OTLP/JSON lines")
		compareAddr = flag.String("compare-addr", "", "also run every query against this second endpoint and require identical groups (scatter-gather verification)")
		mutateRate  = flag.Float64("mutate-rate", 0, "fraction of operations that are edge-mutation batches instead of queries (requires the server to run -mutable)")
		mutateBatch = flag.Int("mutate-batch", 8, "edge ops per mutation batch when -mutate-rate > 0")
		epochFile   = flag.String("epoch-file", "", "after the run, record the highest acked mutation epoch in this file (requires -mutate-rate > 0; pairs with -require-epoch-file across a server restart)")
		reqEpochF   = flag.String("require-epoch-file", "", "before the run, require the server's dataset epoch to be >= the epoch recorded in this file; a lower epoch means an acked mutation vanished across a restart (exit 1)")
	)
	flag.Parse()
	cliutil.MustScale("ktgload", *scale)
	if *queries <= 0 || *concurrency <= 0 {
		cliutil.BadUsage("ktgload", "-queries and -concurrency must be positive")
	}
	if *mutateRate < 0 || *mutateRate > 1 {
		cliutil.BadUsage("ktgload", "-mutate-rate must be in [0,1]")
	}
	if *mutateRate > 0 && *mutateBatch <= 0 {
		cliutil.BadUsage("ktgload", "-mutate-batch must be positive")
	}
	if *diverse && *topN <= 0 {
		*topN = workload.DefaultParams.N
	}
	if *epochFile != "" && *mutateRate <= 0 {
		cliutil.BadUsage("ktgload", "-epoch-file requires -mutate-rate > 0")
	}

	base := normalizeBase(*addr)

	kwSets, ds, err := buildWorkload(*replayPath, *preset, *scale, *seed, *queries, *kwCount)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktgload: %v\n", err)
		os.Exit(1)
	}

	// -mutate-rate turns the replay into a mixed read/write stream: a
	// seeded coin flip marks some operation slots as edge-mutation
	// batches. The Mutator mirrors the server's regenerated graph so
	// every generated op is effective (inserts pick absent edges,
	// deletes pick present ones) — the stream exercises real epoch
	// churn instead of degenerating into ignored duplicates.
	var (
		mut        *workload.Mutator
		isMutation []bool
	)
	if *mutateRate > 0 {
		mut = workload.NewMutator(ds.Graph, *seed+2)
		opRand := rand.New(rand.NewSource(*seed + 3))
		isMutation = make([]bool, len(kwSets))
		for i := range isMutation {
			isMutation[i] = opRand.Float64() < *mutateRate
		}
	}

	cl, err := client.New(client.Config{
		BaseURL: base,
		// The load driver retries hard on purpose: its job is proving no
		// query is lost, so the patience loop below re-spends budget the
		// chaos faults burn. The budget still exists to bound storms.
		MaxAttempts:    *maxAttempts,
		AttemptTimeout: *attemptTO,
		HedgeDelay:     *hedgeDelay,
		RetryBudget:    -1, // unlimited: lost-query detection owns pacing
		Seed:           *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktgload: %v\n", err)
		os.Exit(1)
	}
	waitHealthy(cl)
	if *reqEpochF != "" {
		requireEpoch(base, *preset, *reqEpochF)
	}

	// -compare-addr runs every query against a second endpoint (e.g. a
	// scatter-gather coordinator vs a direct single shard) and requires
	// the answers' groups to be identical. This is the verify.sh proof
	// that the distributed path reproduces the single-node path.
	var cmpCl *client.Client
	if *compareAddr != "" {
		cmpCl, err = client.New(client.Config{
			BaseURL:        normalizeBase(*compareAddr),
			MaxAttempts:    *maxAttempts,
			AttemptTimeout: *attemptTO,
			HedgeDelay:     *hedgeDelay,
			RetryBudget:    -1,
			Seed:           *seed + 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ktgload: %v\n", err)
			os.Exit(1)
		}
		waitHealthy(cmpCl)
	}

	// Every logical query runs under its own root span so lost queries
	// are attributable by trace ID even when no attempt ever answered;
	// with -trace-export the client-side fragments (call span + attempt
	// children) are also written out as OTLP/JSON.
	baseCtx := context.Background()
	var exporter *obs.TraceExporter
	if *traceExport != "" {
		exp, err := obs.NewTraceExporter(*traceExport, "ktgload")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ktgload: %v\n", err)
			os.Exit(1)
		}
		exporter = exp
		traces := obs.NewTraceStore(obs.TraceStoreConfig{})
		traces.SetExporter(exp)
		baseCtx = obs.ContextWithTraceStore(baseCtx, traces)
	}

	type result struct {
		idx      int
		latency  time.Duration
		resp     *client.Response
		mresp    *client.MutationResponse
		mutation bool
		traceID  string
		err      error
		mismatch string
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results = make([]result, len(kwSets))
		next    = make(chan int)
	)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if isMutation != nil && isMutation[i] {
					batch := mut.Batch(*mutateBatch, 0.5)
					mreq := &client.MutationRequest{
						Dataset: *preset,
						Edges:   make([]client.EdgeOp, len(batch)),
					}
					for j, op := range batch {
						name := "delete"
						if op.Insert {
							name = "insert"
						}
						mreq.Edges[j] = client.EdgeOp{Op: name, U: int64(op.U), V: int64(op.V)}
					}
					t0 := time.Now()
					mctx, mspan := obs.StartSpan(baseCtx, "ktgload mutate")
					mspan.SetAttr("query_index", strconv.Itoa(i))
					mresp, err := mutateWithPatience(mctx, cl, mreq, *patience)
					if err != nil {
						mspan.SetError(err.Error())
					}
					mspan.End()
					r := result{idx: i, latency: time.Since(t0), mresp: mresp, mutation: true, traceID: mspan.TraceID(), err: err}
					mu.Lock()
					results[i] = r
					mu.Unlock()
					if *verbose {
						if err != nil {
							fmt.Fprintf(os.Stderr, "ktgload: mutation %d LOST after %v (trace %s): %v\n",
								i, r.latency, r.traceID, err)
						} else {
							fmt.Fprintf(os.Stderr, "ktgload: mutation %d ok in %v (epoch=%d applied=%d ignored=%d request_id=%s)\n",
								i, r.latency, mresp.Epoch, mresp.Applied, mresp.Ignored, mresp.RequestID)
						}
					}
					continue
				}
				req := &client.Request{
					Dataset:   *preset,
					Keywords:  kwSets[i],
					GroupSize: *groupSize,
					Tenuity:   *tenuity,
					TopN:      *topN,
					Algorithm: *algorithm,
				}
				t0 := time.Now()
				qctx, qspan := obs.StartSpan(baseCtx, "ktgload query")
				qspan.SetAttr("query_index", strconv.Itoa(i))
				resp, err := runWithPatience(qctx, cl, req, *diverse, *patience)
				if err != nil {
					qspan.SetError(err.Error())
				}
				qspan.End()
				r := result{idx: i, latency: time.Since(t0), resp: resp, traceID: qspan.TraceID(), err: err}
				if cmpCl != nil && err == nil {
					r.mismatch = compareAnswers(qctx, cmpCl, req, *diverse, *patience, resp)
				}
				mu.Lock()
				results[i] = r
				mu.Unlock()
				if *verbose {
					if err != nil {
						fmt.Fprintf(os.Stderr, "ktgload: query %d LOST after %v (trace %s): %v\n",
							i, r.latency, r.traceID, err)
					} else {
						fmt.Fprintf(os.Stderr, "ktgload: query %d ok in %v (attempts=%d hedged=%v groups=%d request_id=%s trace=%s)\n",
							i, r.latency, resp.Attempts, resp.Hedged, len(resp.Groups), resp.RequestID, resp.TraceID)
					}
				}
			}
		}()
	}
	for i := range kwSets {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	lost, malformed, mismatched := 0, 0, 0
	latencies := make([]time.Duration, 0, len(results))
	var ms mutationSummary
	for i, r := range results {
		if r.err != nil {
			lost++
			if r.mutation {
				fmt.Fprintf(os.Stderr, "ktgload: LOST mutation %d (trace %s): %v\n", i, r.traceID, r.err)
			} else {
				fmt.Fprintf(os.Stderr, "ktgload: LOST query %d (keywords %v, trace %s): %v\n",
					i, kwSets[i], r.traceID, r.err)
			}
			continue
		}
		if r.mutation {
			ms.latencies = append(ms.latencies, r.latency)
			ms.applied += r.mresp.Applied
			ms.ignored += r.mresp.Ignored
			if r.mresp.Epoch > ms.maxEpoch {
				ms.maxEpoch = r.mresp.Epoch
			}
			continue
		}
		latencies = append(latencies, r.latency)
		if msg := validate(r.resp, kwSets[i], *groupSize); msg != "" {
			malformed++
			fmt.Fprintf(os.Stderr, "ktgload: MALFORMED answer to query %d: %s\n", i, msg)
		}
		if r.mismatch != "" {
			mismatched++
			fmt.Fprintf(os.Stderr, "ktgload: MISMATCH on query %d vs %s: %s\n", i, *compareAddr, r.mismatch)
		}
	}

	report(os.Stdout, elapsed, latencies, cl.Stats(), lost, malformed, len(kwSets))
	if mut != nil {
		ms.report(os.Stdout, cl.Stats())
	}
	if cmpCl != nil {
		fmt.Fprintf(os.Stdout, "  compare  endpoint=%s mismatches=%d\n", cmpCl.Target(), mismatched)
	}
	// Explicit close (not deferred): the os.Exit below would skip defers
	// and could truncate the final export line.
	if exporter != nil {
		_ = exporter.Close()
	}
	if lost > 0 || malformed > 0 || mismatched > 0 {
		os.Exit(1)
	}
	// Only after a fully clean run: every epoch up to maxEpoch was acked,
	// so a restarted server serving anything lower has lost durability.
	if *epochFile != "" {
		if err := os.WriteFile(*epochFile, []byte(strconv.FormatUint(ms.maxEpoch, 10)+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ktgload: writing -epoch-file: %v\n", err)
			os.Exit(1)
		}
	}
}

// requireEpoch enforces the durability contract across a restart: the
// dataset's served epoch must be at least the one a previous run
// recorded with -epoch-file. Each acked effective batch advances the
// epoch by exactly one, so a lower epoch can only mean an acked
// mutation is missing — a hard failure, not a warning. The poll rides
// out WAL replay (503s from /v1/datasets while the gate is up).
func requireEpoch(base, dataset, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktgload: reading -require-epoch-file: %v\n", err)
		os.Exit(1)
	}
	want, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktgload: parsing -require-epoch-file %s: %v\n", path, err)
		os.Exit(1)
	}
	deadline := time.Now().Add(60 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		got, err := datasetEpoch(base, dataset)
		if err == nil {
			if got < want {
				fmt.Fprintf(os.Stderr, "ktgload: acked mutation missing after restart: dataset %q serves epoch %d, a previous run acked epoch %d\n",
					dataset, got, want)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "ktgload: epoch continuity ok (served %d >= acked %d)\n", got, want)
			return
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "ktgload: -require-epoch-file: /v1/datasets never became ready: %v\n", lastErr)
	os.Exit(1)
}

// datasetEpoch reads one dataset's live epoch from /v1/datasets.
func datasetEpoch(base, dataset string) (uint64, error) {
	res, err := http.Get(base + "/v1/datasets")
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/v1/datasets: status %d", res.StatusCode)
	}
	var list server.DatasetList
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		return 0, err
	}
	for _, d := range list.Datasets {
		if d.Name == dataset {
			return d.Epoch, nil
		}
	}
	return 0, fmt.Errorf("dataset %q not in /v1/datasets", dataset)
}

// normalizeBase turns a host:port or :port address into a base URL.
func normalizeBase(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

// compareAnswers re-runs the query against the comparison endpoint and
// returns a description of any semantic difference in the answers.
// Groups are compared as canonical JSON: members, covered keywords and
// scores must all agree, which is exactly the coordinator's exactness
// contract. Partiality must agree too — a partial answer on one side
// only is a silent-degradation bug, not a tie.
func compareAnswers(ctx context.Context, cl *client.Client, req *client.Request, diverse bool, patience time.Duration, want *client.Response) string {
	got, err := runWithPatience(ctx, cl, req, diverse, patience)
	if err != nil {
		return fmt.Sprintf("comparison endpoint lost the query: %v", err)
	}
	if want.Partial != got.Partial {
		return fmt.Sprintf("partial flag differs: %v vs %v", want.Partial, got.Partial)
	}
	wantJSON, err := json.Marshal(want.Groups)
	if err != nil {
		return err.Error()
	}
	gotJSON, err := json.Marshal(got.Groups)
	if err != nil {
		return err.Error()
	}
	if string(wantJSON) != string(gotJSON) {
		return fmt.Sprintf("groups differ:\n  primary %s\n  compare %s", wantJSON, gotJSON)
	}
	return ""
}

// buildWorkload produces the query keyword-name sets: replayed from a
// file, or sampled from a local regeneration of the server's preset
// (gen.GeneratePreset is deterministic, so the vocabulary matches).
// The regenerated dataset is returned too so -mutate-rate can mirror
// the server's graph.
func buildWorkload(replayPath, preset string, scale float64, seed int64, queries, kwCount int) ([][]string, *gen.Dataset, error) {
	ds, err := gen.GeneratePreset(preset, scale)
	if err != nil {
		return nil, nil, err
	}
	g := workload.NewGenerator(ds, seed)
	var sets [][]string
	if replayPath != "" {
		f, err := os.Open(replayPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		batch, err := workload.LoadQueries(f)
		if err != nil {
			return nil, nil, err
		}
		for _, ids := range batch {
			sets = append(sets, g.KeywordNames(ids))
		}
		return sets, ds, nil
	}
	for _, ids := range g.Batch(queries, kwCount) {
		sets = append(sets, g.KeywordNames(ids))
	}
	return sets, ds, nil
}

// waitHealthy polls /healthz briefly so a freshly exec'd server does
// not count startup races as lost queries.
func waitHealthy(cl *client.Client) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if err := cl.Health(context.Background()); err == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Not fatal: the query loop's own retries give the final verdict.
	fmt.Fprintln(os.Stderr, "ktgload: warning: server not healthy after 15s, proceeding anyway")
}

// runWithPatience keeps re-issuing one logical call until it succeeds
// or the patience budget expires. The client already retries within a
// call; this outer loop additionally rides out breaker-open windows
// and exhausted attempt counts, because the driver's contract is "no
// query may be lost while the server is actually up". ctx carries the
// query's root span, so every re-issued call traces under one ID.
func runWithPatience(ctx context.Context, cl *client.Client, req *client.Request, diverse bool, patience time.Duration) (*client.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, patience)
	defer cancel()
	var lastErr error
	for {
		var (
			resp *client.Response
			err  error
		)
		if diverse {
			resp, err = cl.Diverse(ctx, req)
		} else {
			resp, err = cl.Query(ctx, req)
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("patience %v exhausted: %w", patience, lastErr)
		}
		// Breaker-open rejections are instant; pause so the cooldown can
		// elapse instead of spinning.
		if errors.Is(err, client.ErrCircuitOpen) {
			select {
			case <-time.After(250 * time.Millisecond):
			case <-ctx.Done():
				return nil, fmt.Errorf("patience %v exhausted: %w", patience, lastErr)
			}
		}
	}
}

// mutateWithPatience keeps re-sending one edge batch until it lands or
// the patience budget expires. Re-sending is safe: edge ops are
// idempotent, so a batch that already applied re-applies as all-ignored
// without minting another epoch. Structured 4xx rejections fail fast —
// the identical batch can never succeed, so retrying it would only hide
// a contract bug.
func mutateWithPatience(ctx context.Context, cl *client.Client, req *client.MutationRequest, patience time.Duration) (*client.MutationResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, patience)
	defer cancel()
	var lastErr error
	for {
		resp, err := cl.MutateEdges(ctx, req)
		if err == nil {
			return resp, nil
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("patience %v exhausted: %w", patience, lastErr)
		}
		if errors.Is(err, client.ErrCircuitOpen) {
			select {
			case <-time.After(250 * time.Millisecond):
			case <-ctx.Done():
				return nil, fmt.Errorf("patience %v exhausted: %w", patience, lastErr)
			}
		}
	}
}

// mutationSummary aggregates the write half of a mixed replay.
type mutationSummary struct {
	latencies []time.Duration
	applied   int
	ignored   int
	maxEpoch  uint64
}

func (ms *mutationSummary) report(w *os.File, st client.Stats) {
	sort.Slice(ms.latencies, func(i, j int) bool { return ms.latencies[i] < ms.latencies[j] })
	q := func(p float64) time.Duration {
		if len(ms.latencies) == 0 {
			return 0
		}
		return ms.latencies[int(p*float64(len(ms.latencies)-1))]
	}
	fmt.Fprintf(w, "  mutation n=%d p50=%v p95=%v p99=%v applied=%d ignored=%d max_epoch=%d epoch_skew_retries=%d\n",
		len(ms.latencies),
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond), q(0.99).Round(time.Microsecond),
		ms.applied, ms.ignored, ms.maxEpoch, st.EpochSkewRetries)
}

// validate checks structural well-formedness of an answer: every group
// has exactly p members in strictly ascending order, covered keywords
// are a subset of the query's, and QKC fractions are sane. (Semantic
// equivalence to a fault-free run is the soak test's job; the driver
// checks what it can without ground truth.)
func validate(resp *client.Response, kws []string, p int) string {
	asked := make(map[string]bool, len(kws))
	for _, k := range kws {
		asked[k] = true
	}
	for gi, g := range resp.Groups {
		if len(g.Members) != p {
			return fmt.Sprintf("group %d has %d members, want %d", gi, len(g.Members), p)
		}
		for i := 1; i < len(g.Members); i++ {
			if g.Members[i] <= g.Members[i-1] {
				return fmt.Sprintf("group %d members %v are not strictly ascending", gi, g.Members)
			}
		}
		for _, k := range g.Covered {
			if !asked[k] {
				return fmt.Sprintf("group %d claims to cover %q, which was never asked", gi, k)
			}
		}
		if g.QKC < 0 || g.QKC > 1 {
			return fmt.Sprintf("group %d has QKC %v outside [0,1]", gi, g.QKC)
		}
	}
	return ""
}

// report prints the human summary: throughput, latency quantiles, and
// the resilience counters that show what the run cost.
func report(w *os.File, elapsed time.Duration, lats []time.Duration, st client.Stats, lost, malformed, total int) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	fmt.Fprintf(w, "ktgload: %d queries in %v (%.1f q/s), %d lost, %d malformed\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), lost, malformed)
	fmt.Fprintf(w, "  latency  p50=%v p95=%v p99=%v max=%v\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), q(1.0).Round(time.Microsecond))
	fmt.Fprintf(w, "  client   attempts=%d retries=%d retry_after_honored=%d hedges=%d hedge_wins=%d\n",
		st.Attempts, st.Retries, st.RetryAfterHonored, st.Hedges, st.HedgeWins)
	fmt.Fprintf(w, "  breaker  trips=%d rejects=%d   degraded=%d partial=%d errors=%d\n",
		st.BreakerTrips, st.BreakerRejects, st.Degraded, st.Partial, st.Errors)
}
