// Command ktgserver serves KTG and DKTG queries over HTTP/JSON. It
// loads one or more datasets (generated presets and/or an edge-list +
// attribute file pair), builds a shared distance index per dataset, and
// exposes:
//
//	POST /v1/query             exact or greedy KTG search
//	POST /v1/diverse           DKTG-Greedy diverse search
//	GET  /v1/datasets          served datasets and their stats
//	POST /v1/cache/invalidate  drop all cached results
//	GET  /healthz, /readyz     liveness / readiness
//	GET  /metrics              Prometheus metrics (shared obs registry)
//	GET  /debug/requests       flight recorder: recent completed requests
//	GET  /debug/requests/slow  slow-query log (top-K by latency, sliding window)
//	GET  /debug/inflight       currently executing requests with elapsed time
//	GET  /debug/search         in-flight searches with live progress snapshots
//	GET  /debug/traces         tail-sampled distributed-trace store
//	GET  /debug/traces/{id}    one trace (JSON; ?format=waterfall for ASCII)
//
// Every request carries a request ID: a well-formed inbound
// X-Request-Id is honored, anything else replaced with a generated ID;
// the ID is echoed in the X-Request-Id response header and stamped on
// every log line the request produces, down into the search core. The
// flight recorder retains the last -flight-recorder completed requests
// (search phases and stats, queue wait, outcome) and an
// always-retained slow-query log of requests at or above
// -slow-query-ms; both are served on the routes above and on the
// -debug-addr surface.
//
// Distributed tracing is always on for /v1/* requests: a well-formed
// inbound W3C traceparent is continued (so client attempts and server
// spans share one trace), a fresh trace is started otherwise, and the
// trace ID is echoed as X-Trace-Id and recorded on flight-recorder
// entries. Completed traces land in a bounded tail-sampled store
// (-trace-store entries per tier): traces that errored, degraded, or
// ran at or over -slow-query-ms are always kept, the rest are sampled
// at -trace-sample. -trace-export appends every stored fragment to a
// file as OTLP/JSON lines for offline analysis.
//
// Admission control bounds concurrent searches (-workers) and the wait
// queue (-queue); overflow is rejected with 429 + Retry-After. Complete
// results land in an LRU cache (-cache) keyed by the canonicalized
// query; identical concurrent queries share one search. Every request
// carries a deadline (its timeout_ms, else -timeout, capped by
// -max-timeout) that cancels the search core mid-flight.
//
// With -snapshots DIR each dataset's distance index is loaded from a
// checksummed snapshot (<dir>/<dataset>.<kind>.snap) when it is valid
// for the served graph, and rebuilt then re-saved crash-atomically when
// it is missing, corrupt, version-skewed, or fingerprint-mismatched —
// snapshot damage costs a rebuild, never a failed startup. Under
// sustained overload, exact /v1/query searches that waited longer than
// -degrade-wait for a worker slot run the greedy algorithm instead and
// say so via "degraded": true.
//
// SIGINT/SIGTERM drains gracefully: readiness flips and new queries get
// 503 while the listener stays open for -drain-grace, admitted searches
// finish (up to -drain-timeout), then any stragglers are
// force-cancelled via their contexts.
//
// Examples:
//
//	ktgserver -addr :8080 -presets brightkite,gowalla -scale 0.05
//	ktgserver -addr 127.0.0.1:0 -edges g.edges -attrs g.attrs -dataset-name prod
//	ktgserver -presets dblp -index nl -workers 4 -queue 16 -debug-addr :6060
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ktg"
	"ktg/internal/chaos"
	"ktg/internal/cliutil"
	"ktg/internal/obs"
	"ktg/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address (host:0 picks a free port)")
		presets      = flag.String("presets", "brightkite", "comma-separated dataset presets to serve ("+strings.Join(ktg.Presets(), ", ")+"); empty to serve files only")
		scale        = flag.Float64("scale", 0.02, "preset scale factor")
		edges        = flag.String("edges", "", "edge-list file for an additional file-backed dataset")
		attrs        = flag.String("attrs", "", "keyword attribute file (with -edges)")
		dsName       = flag.String("dataset-name", "dataset", "name for the file-backed dataset")
		indexKind    = flag.String("index", "nlrnl", "shared distance index per dataset: bfs, nl, nlrnl")
		mutable      = flag.Bool("mutable", false, "serve datasets in live-mutation mode: POST /v1/edges applies edge batches via epoch-swapped copy-on-write (bfs, nl, nlrnl indexes)")
		walDir       = flag.String("wal-dir", "", "durable-mutation mode (requires -mutable): write-ahead-log every acked edge batch under <dir>/<dataset>/ and recover the exact pre-crash epoch on restart")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always (ack = durable), interval (background fsync), off (OS decides)")
		walCkptEvery = flag.Uint64("wal-checkpoint-every", 64, "snapshot the live graph and retire WAL segments every N epochs (0 disables checkpointing)")
		snapshots    = flag.String("snapshots", "", "directory for index snapshots: load on startup when valid, rebuild and re-save otherwise (empty = always build in memory)")
		degradeWait  = flag.Duration("degrade-wait", 500*time.Millisecond, "queue wait beyond which exact searches degrade to greedy (negative disables)")
		workers      = flag.Int("workers", 0, "max concurrent searches (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "max requests waiting for a worker (0 = 2x workers, negative = none)")
		cacheSize    = flag.Int("cache", 256, "result-cache capacity in entries (negative disables)")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request search deadline")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "ceiling on client-requested timeouts")
		drainGrace   = flag.Duration("drain-grace", time.Second, "how long to keep serving after the readiness flip so probes and queued clients observe it before the listener closes")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight searches")
		verbose      = flag.Bool("v", false, "debug-level structured logging")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this extra address")
		slowQueryMS  = flag.Int("slow-query-ms", 250, "latency (ms) at or above which a request enters the slow-query log and is warned about (negative disables)")
		recorderSize = flag.Int("flight-recorder", 256, "completed requests retained by the /debug/requests flight recorder (negative disables the ring)")
		chaosSpec    = flag.String("chaos", "", "TESTING ONLY: deterministic fault-injection spec, e.g. 'seed=7,latency=0.1:1ms-20ms,e429=0.1:0,e500=0.1,reset=0.05,truncate=0.05' (see internal/chaos; empty = disabled)")
		traceStore   = flag.Int("trace-store", 256, "traces retained per tail-sampler tier on /debug/traces (negative disables trace retention)")
		traceSample  = flag.Float64("trace-sample", 1.0, "probability of storing an unflagged trace; slow/error/degraded traces are always kept (0 keeps flagged traces only)")
		traceExport  = flag.String("trace-export", "", "append stored trace fragments to this file as OTLP/JSON lines (empty = no export)")
	)
	flag.Parse()

	cliutil.MustChoice("ktgserver", "index", *indexKind, "bfs", "nl", "nlrnl")
	var presetNames []string
	for _, name := range strings.Split(*presets, ",") {
		if name = strings.TrimSpace(name); name != "" {
			cliutil.MustChoice("ktgserver", "presets", name, ktg.Presets()...)
			presetNames = append(presetNames, name)
		}
	}
	if len(presetNames) > 0 {
		cliutil.MustScale("ktgserver", *scale)
	}
	if len(presetNames) == 0 && *edges == "" {
		cliutil.BadUsage("ktgserver", "nothing to serve: give -presets and/or -edges")
	}
	if *walDir != "" && !*mutable {
		cliutil.BadUsage("ktgserver", "-wal-dir only makes sense with -mutable")
	}
	cliutil.MustChoice("ktgserver", "wal-sync", *walSync, "always", "interval", "off")

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewTextLogger(os.Stderr, level)
	ktg.SetDefaultLogger(logger)

	// One flight recorder serves both the embedded /debug/requests*
	// routes and the -debug-addr surface (obs.DebugMux reads the
	// process default).
	recorder := obs.NewFlightRecorder(*recorderSize, 0,
		time.Duration(*slowQueryMS)*time.Millisecond, 0)
	obs.SetDefaultRecorder(recorder)

	// The trace store shares the recorder's slow threshold so the slow
	// log and the tail sampler agree on what "slow" means. Installed as
	// the process default so the embedded /debug/traces routes and the
	// -debug-addr surface serve the same traces.
	var traces *obs.TraceStore
	if *traceStore >= 0 {
		rate := *traceSample
		if rate == 0 {
			rate = -1 // store semantics: negative = flagged traces only
		}
		traces = obs.NewTraceStore(obs.TraceStoreConfig{
			KeptCapacity:    *traceStore,
			SampledCapacity: *traceStore,
			SampleRate:      rate,
			SlowThreshold:   recorder.SlowThreshold(),
		})
		if *traceExport != "" {
			exp, err := obs.NewTraceExporter(*traceExport, "ktgserver")
			if err != nil {
				fatal(logger, err)
			}
			defer exp.Close()
			traces.SetExporter(exp)
			logger.Info("trace export enabled", "path", *traceExport)
		}
		obs.SetDefaultTraceStore(traces)
	}

	if *debugAddr != "" {
		dbg, _, err := ktg.StartDebugServer(*debugAddr)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("debug server listening", "addr", dbg,
			"endpoints", "/metrics /debug/vars /debug/pprof/")
	}

	if *snapshots != "" {
		if err := os.MkdirAll(*snapshots, 0o755); err != nil {
			fatal(logger, err)
		}
	}

	// The root handler is swappable so a durable (-wal-dir) boot can open
	// the listener before WAL recovery: probes and early clients get the
	// RecoveryGate's honest 503 {"replaying": true, ...} instead of a
	// connection refusal, and the serving handler is swapped in once
	// every dataset has republished its pre-crash epoch.
	root := &swapHandler{}
	baseCtx, forceCancel := context.WithCancel(context.Background())
	defer forceCancel()
	httpSrv := &http.Server{
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	serveErr := make(chan error, 1)
	var ln net.Listener
	listen := func(fields ...any) {
		var err error
		if ln, err = net.Listen("tcp", *addr); err != nil {
			fatal(logger, err)
		}
		logger.Info("ktgserver listening",
			append([]any{"addr", ln.Addr().String()}, fields...)...)
		go func() { serveErr <- httpSrv.Serve(ln) }()
	}

	var dur *durability
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fatal(logger, err)
		}
		dur = &durability{
			baseDir:         *walDir,
			sync:            *walSync,
			checkpointEvery: *walCkptEvery,
			gate:            server.NewRecoveryGate(),
		}
		root.set(dur.gate.Handler())
		listen("recovering", true, "wal_dir", *walDir, "wal_sync", *walSync)
	}

	var datasets []*server.Dataset
	for _, name := range presetNames {
		nw, err := ktg.GeneratePreset(name, *scale)
		if err != nil {
			fatal(logger, err)
		}
		datasets = append(datasets, prepare(logger, name, nw, *indexKind, *snapshots, *mutable, dur))
	}
	if *edges != "" {
		nw, err := loadNetwork(*edges, *attrs)
		if err != nil {
			fatal(logger, err)
		}
		datasets = append(datasets, prepare(logger, *dsName, nw, *indexKind, *snapshots, *mutable, dur))
	}

	srv, err := server.New(server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cacheSize,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DegradeQueueWait: *degradeWait,
		Logger:           logger,
		Recorder:         recorder,
		TraceStore:       traces,
	}, datasets...)
	if err != nil {
		fatal(logger, err)
	}

	handler := srv.Handler()
	// Fault injection never enables silently: it requires an explicit
	// -chaos spec that actually injects something, and announces itself
	// at warning level before the listener opens.
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(logger, err)
		}
		if !spec.Active() {
			fatal(logger, errors.New("ktgserver: -chaos spec enables no faults; refusing to start chaos injection"))
		}
		handler = chaos.New(spec).Wrap(handler)
		logger.Warn("CHAOS INJECTION ENABLED: this server deliberately delays, fails, and corrupts responses",
			"spec", spec.String(), "seed", spec.Seed, "scoped_paths", strings.Join(spec.Paths(), ","))
	}

	root.set(handler)
	if dur == nil {
		listen("datasets", len(datasets), "workers", srv.Workers(), "queue", srv.QueueDepth())
	} else {
		logger.Info("ktgserver ready; wal recovery finished for all datasets",
			"datasets", len(datasets), "workers", srv.Workers(), "queue", srv.QueueDepth())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		fatal(logger, err)
	case <-ctx.Done():
	}

	logger.Info("shutdown signal received; draining", "grace", *drainGrace, "timeout", *drainTimeout)
	srv.Drain()
	// Keep the listener open for the grace window: http.Server.Shutdown
	// closes it (and idle connections) immediately, so without this pause
	// nothing outside would ever observe the /readyz flip or the 503s.
	time.Sleep(*drainGrace)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logger.Warn("drain budget exceeded; force-cancelling in-flight searches", "err", err)
		forceCancel()
		shCtx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(shCtx2); err != nil {
			_ = httpSrv.Close()
		}
	}
	// Flush and release every dataset's WAL after traffic stops; a clean
	// shutdown leaves nothing for the next boot to replay-truncate.
	for _, ds := range datasets {
		if ds.Live != nil {
			if err := ds.Live.Close(); err != nil {
				logger.Warn("closing dataset wal", "dataset", ds.Name, "err", err)
			}
		}
	}
	logger.Info("ktgserver stopped")
}

// swapHandler atomically swaps the root handler: the RecoveryGate
// during WAL recovery, the real server afterwards.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// durability carries the -wal-* flag surface into dataset preparation.
type durability struct {
	baseDir         string
	sync            string
	checkpointEvery uint64
	gate            *server.RecoveryGate
}

// prepare attaches the logger and builds the shared distance index for
// one dataset. "bfs" leaves the index nil: the per-instance BFS oracle
// is not safe to share, so each search gets a private one. With a
// snapshot directory the index is loaded from
// <dir>/<dataset>.<kind>.snap when that file is valid for this graph,
// and rebuilt + re-saved crash-atomically otherwise — a corrupt or
// stale snapshot costs a rebuild, never a failed startup. mutable wraps
// the network + index into a ktg.LiveNetwork so POST /v1/edges can
// publish new epochs; ownership of the index transfers to the live
// handle, searches resolve it through the current epoch's view.
func prepare(logger *slog.Logger, name string, nw *ktg.Network, indexKind, snapDir string, mutable bool, dur *durability) *server.Dataset {
	nw.SetLogger(logger)
	ds := &server.Dataset{Name: name, Network: nw}
	start := time.Now()
	var (
		err error
		out ktg.SnapshotOutcome
	)
	snapPath := ""
	if snapDir != "" && indexKind != "bfs" {
		snapPath = filepath.Join(snapDir, name+"."+indexKind+".snap")
	}
	switch {
	case indexKind == "bfs":
		liveWrap(logger, ds, mutable, dur)
		logger.Info("dataset ready", "dataset", name, "index", "BFS (per-search)",
			"mutable", mutable, "vertices", nw.NumVertices(), "edges", nw.NumEdges())
		return ds
	case indexKind == "nl" && snapPath != "":
		ds.Index, out, err = nw.LoadOrBuildNL(snapPath, 0)
	case indexKind == "nl":
		ds.Index, err = nw.BuildNL(0)
	case snapPath != "":
		ds.Index, out, err = nw.LoadOrBuildNLRNL(snapPath)
	default:
		ds.Index, err = nw.BuildNLRNL()
	}
	if err != nil {
		fatal(logger, err)
	}
	if snapPath != "" {
		logger.Info("index snapshot outcome", "dataset", name, "path", snapPath,
			"reason", out.Reason, "loaded", out.Loaded, "resaved", out.Saved)
	}
	liveWrap(logger, ds, mutable, dur)
	logger.Info("dataset ready", "dataset", name, "index", ds.Index.Name(),
		"build", time.Since(start).Round(time.Millisecond), "mutable", mutable,
		"vertices", nw.NumVertices(), "edges", nw.NumEdges())
	return ds
}

// liveWrap makes the dataset mutable when requested; an index without
// dynamic maintenance is a configuration error, caught at startup. With
// -wal-dir the live handle is durable: it recovers the dataset's WAL
// (replaying to the exact pre-crash epoch, reporting progress to the
// RecoveryGate) and write-ahead-logs every later batch.
func liveWrap(logger *slog.Logger, ds *server.Dataset, mutable bool, dur *durability) {
	if !mutable {
		return
	}
	if dur == nil {
		live, err := ktg.NewLiveNetwork(ds.Network, ds.Index)
		if err != nil {
			fatal(logger, err)
		}
		ds.Live = live
		return
	}
	live, _, err := ktg.NewLiveNetworkDurable(ds.Network, ds.Index, ktg.WALConfig{
		Dir:             filepath.Join(dur.baseDir, ds.Name),
		Sync:            dur.sync,
		CheckpointEvery: dur.checkpointEvery,
		Progress:        dur.gate.SetProgress,
		Logger:          logger,
	})
	if err != nil {
		fatal(logger, err)
	}
	ds.Live = live
}

func loadNetwork(edges, attrs string) (*ktg.Network, error) {
	if edges == "" {
		return nil, errors.New("need -edges")
	}
	ef, err := os.Open(edges)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	if attrs == "" {
		return ktg.LoadNetwork(ef, nil)
	}
	af, err := os.Open(attrs)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	return ktg.LoadNetwork(ef, af)
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("ktgserver failed", "err", err)
	os.Exit(1)
}
