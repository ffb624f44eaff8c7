#!/bin/sh
# Repo verification gate: build everything, vet, run the full test
# suite under the race detector, then smoke the query server end to
# end. CI and pre-commit both run this.
set -eux

cd "$(dirname "$0")"

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
# The search core reports only through the Stats it returns and its
# probe; the root package derives logs, metrics and trace spans from
# them. Keep the core from logging or tracing on its own.
if go list -f '{{join .Imports "\n"}}' ./internal/core | grep -Eqx 'ktg/internal/obs|log/slog'; then
    echo "verify: internal/core imports ktg/internal/obs or log/slog" >&2
    exit 1
fi
# staticcheck is best-effort: run it when installed, complain loudly (but
# do not fail) when it is not, so CI images that carry it get the extra
# signal without making it a local prerequisite.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "verify: staticcheck not installed; SKIPPING static analysis" >&2
fi
./scripts/check_metrics_docs.sh
# The observability packages carry the concurrency-heavy request-scope
# machinery, internal/live the epoch-swap reader/writer dance, and
# internal/wal the fsync/append interleaving under the durability
# barrier; race-test them explicitly (and first), then everything —
# including the live-mutation and crash/restart chaos soaks in
# internal/server and the fleet restart soak in internal/shard.
go test -race ./internal/obs ./internal/server ./internal/live ./internal/wal ./internal/shard
go test -race ./...
# Index builds and repairs split their kernel passes over GOMAXPROCS
# workers; race-test the one-worker and the multi-worker runner.
go test -race -cpu 1,2 ./internal/index ./internal/live
# Each fuzz step caps the minimization of a new input at 100 runs. Go's
# default budget is 60 s per input, and minimizing a KB-sized corpus
# entry tries a quadratic number of byte cuts: FuzzMultiBFS spent most of
# its 10 s with both workers minimizing and the exec count frozen.
# Every index build and repair runs on the bit-parallel BFS kernel;
# fuzz it against the single-source Traverser beyond its seed corpus.
go test ./internal/graph -run '^$' -fuzz FuzzMultiBFS -fuzztime 10s -fuzzminimizetime 100x
# A durable dataset's restart reads its checkpoint with ReadBinary; fuzz
# the reader: an accepted input must be the saved container, unchanged.
go test ./internal/graph -run '^$' -fuzz FuzzReadBinary -fuzztime 10s -fuzzminimizetime 100x
# Every search compiles its query from the keyword postings; fuzz the
# compile against the per-vertex reference compile.
go test ./internal/keywords -run '^$' -fuzz FuzzCompileQuery -fuzztime 10s -fuzzminimizetime 100x
# Every exact search runs the bitset kernel; fuzz it against the
# per-candidate reference loop over random instances and variants.
go test ./internal/core -run '^$' -fuzz FuzzKernelMatchesReference -fuzztime 10s -fuzzminimizetime 100x

# The repository benchmark is a separate Go module over the public API
# (perfbench/go.mod replaces ktg with ../). Vet and test it here so an
# API change that breaks it fails verification, not the benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# Perf-drift gate: re-run the committed "small" experiment and fail on
# >2x regressions against BENCH_small.json (see scripts/check_bench.sh).
./scripts/check_bench.sh

# --- query-server end-to-end smoke -----------------------------------
# Boot ktgserver on a random port, answer one KTG and one DKTG query
# (200 + valid JSON, second identical query must be a cache hit), then
# shut down cleanly via SIGTERM.
tmp=$(mktemp -d "$(pwd)/.verify-tmp.XXXXXX")
server_pid=""
shard1_pid=""
shard2_pid=""
coord_pid=""
cleanup() {
    for p in $server_pid $shard1_pid $shard2_pid $coord_pid; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/ktgserver" ./cmd/ktgserver

# boot_server LOGFILE [extra flags...] — start ktgserver in the
# background and wait for its listen address; sets $server_pid / $addr.
boot_server() {
    _log=$1; shift
    "$tmp/ktgserver" -addr 127.0.0.1:0 -presets brightkite -scale 0.02 \
        -timeout 30s "$@" 2>"$_log" &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*ktgserver listening.*addr=\([^ ]*\).*/\1/p' "$_log" | head -n 1)
        [ -n "$addr" ] && break
        kill -0 "$server_pid" 2>/dev/null || { cat "$_log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "ktgserver never reported its address"; cat "$_log"; exit 1; }
}

# stop_server — graceful SIGTERM shutdown; must exit 0.
stop_server() {
    kill -TERM "$server_pid"
    wait "$server_pid"
    server_pid=""
}

boot_server "$tmp/server.log"
go run ./internal/server/smokeclient -addr "$addr"
stop_server
grep -q "ktgserver stopped" "$tmp/server.log"

# --- live-mutation smoke ---------------------------------------------
# Boot in mutable mode: /v1/datasets must advertise a live epoch, an
# edge batch through POST /v1/edges must swap exactly one new epoch and
# evict the cached answer it staled, and the fresh answer must report
# the new epoch. A mixed read/write ktgload replay then drives epoch
# churn under concurrency.
go build -o "$tmp/ktgload" ./cmd/ktgload

boot_server "$tmp/mutable.log" -mutable
grep -q "mutable=true" "$tmp/mutable.log"
go run ./internal/server/smokeclient -addr "$addr" -mutate
"$tmp/ktgload" -addr "$addr" -preset brightkite -scale 0.02 \
    -queries 25 -concurrency 4 -seed 42 -mutate-rate 0.3 -mutate-batch 4
stop_server

# --- durability / crash-recovery smoke -------------------------------
# Boot with a WAL, churn epochs with ktgload (recording the highest
# acked epoch), have smokeclient apply a permanent edge flip and record
# the exact epoch + answer a restart must reproduce, then SIGKILL the
# server — no shutdown path runs. The restart against the same -wal-dir
# must log a WAL recovery, serve the exact recorded epoch and answer
# (smokeclient -wal-verify), and pass ktgload's epoch-continuity check:
# an acked mutation missing after restart is a hard failure.
wal="$tmp/wal"
boot_server "$tmp/wal1.log" -mutable -wal-dir "$wal"
"$tmp/ktgload" -addr "$addr" -preset brightkite -scale 0.02 \
    -queries 25 -concurrency 4 -seed 42 -mutate-rate 0.3 -mutate-batch 4 \
    -epoch-file "$tmp/wal.epoch"
go run ./internal/server/smokeclient -addr "$addr" -mutate \
    -wal-prepare -state-file "$tmp/wal.state"
[ -s "$tmp/wal.epoch" ]
kill -9 "$server_pid"
wait "$server_pid" || true
server_pid=""

boot_server "$tmp/wal2.log" -mutable -wal-dir "$wal"
go run ./internal/server/smokeclient -addr "$addr" \
    -wal-verify -state-file "$tmp/wal.state"
# -wal-verify waited for readiness, so replay is over by now. The boot
# log must show it actually recovered from the log, not a fresh start.
grep -q "wal recovery complete" "$tmp/wal2.log"
grep -q "recovering=true" "$tmp/wal2.log"
"$tmp/ktgload" -addr "$addr" -preset brightkite -scale 0.02 \
    -queries 10 -concurrency 2 -seed 43 -mutate-rate 0.3 -mutate-batch 4 \
    -require-epoch-file "$tmp/wal.epoch"
stop_server

# --- chaos / resilient-client smoke ----------------------------------
# Boot ktgserver with deterministic fault injection (~35% of /v1/*
# requests get latency, 429s, 500s, resets, or truncated bodies) and
# replay a workload through the resilient client. ktgload exits
# non-zero if any query is lost or returns a malformed answer.
boot_server "$tmp/chaos.log" \
    -chaos "seed=7,latency=0.10:1ms-20ms,e429=0.10:0,e500=0.10,e503=0.06,reset=0.04,truncate=0.04"
grep -qi "chaos injection enabled" "$tmp/chaos.log"
"$tmp/ktgload" -addr "$addr" -preset brightkite -scale 0.02 \
    -queries 25 -concurrency 4 -seed 42 -hedge-delay 25ms
stop_server

# --- distributed-tracing smoke ---------------------------------------
# One workload through the resilient client, both sides exporting
# traces. The client's export must hold call + attempt spans, the
# server's must hold request + search spans, and at least one trace ID
# must appear in BOTH files — the traceparent hop stitched them.
# (smokeclient above already asserts the live /debug/traces/{id} path.)
boot_server "$tmp/trace.log" -trace-export "$tmp/server-traces.jsonl"
"$tmp/ktgload" -addr "$addr" -preset brightkite -scale 0.02 \
    -queries 3 -concurrency 1 -seed 42 -trace-export "$tmp/client-traces.jsonl"
stop_server
grep -q '"name":"client /v1/query"' "$tmp/client-traces.jsonl"
grep -q '"name":"client.attempt"' "$tmp/client-traces.jsonl"
grep -q '"name":"server /v1/query"' "$tmp/server-traces.jsonl"
grep -q '"name":"search.query"' "$tmp/server-traces.jsonl"
tid=$(sed -n 's/.*"traceId":"\([0-9a-f]\{32\}\)".*/\1/p' "$tmp/client-traces.jsonl" | head -n 1)
[ -n "$tid" ]
grep -q "$tid" "$tmp/server-traces.jsonl"

# --- scatter-gather smoke --------------------------------------------
# Two shard workers plus a coordinator. A workload through the
# coordinator must (a) lose no query, (b) match a direct single-node
# run group-for-group (ktgload -compare-addr), and (c) leave at least
# one trace ID spanning the coordinator's and a shard's span exports —
# the scatter propagated its traceparent into the partial calls.
go build -o "$tmp/ktgcoord" ./cmd/ktgcoord

boot_server "$tmp/shard1.log" -trace-export "$tmp/shard-traces.jsonl"
shard1_pid=$server_pid; shard1_addr=$addr; server_pid=""
boot_server "$tmp/shard2.log"
shard2_pid=$server_pid; shard2_addr=$addr; server_pid=""

"$tmp/ktgcoord" -addr 127.0.0.1:0 \
    -shards "http://$shard1_addr,http://$shard2_addr" \
    -trace-export "$tmp/coord-traces.jsonl" 2>"$tmp/coord.log" &
coord_pid=$!
coord_addr=""
for _ in $(seq 1 100); do
    coord_addr=$(sed -n 's/.*ktgcoord listening.*addr=\([^ ]*\).*/\1/p' "$tmp/coord.log" | head -n 1)
    [ -n "$coord_addr" ] && break
    kill -0 "$coord_pid" 2>/dev/null || { cat "$tmp/coord.log"; exit 1; }
    sleep 0.1
done
[ -n "$coord_addr" ] || { echo "ktgcoord never reported its address"; cat "$tmp/coord.log"; exit 1; }

"$tmp/ktgload" -addr "$coord_addr" -compare-addr "$shard1_addr" \
    -preset brightkite -scale 0.02 -queries 10 -concurrency 2 -seed 42 -n 2

# An exact query with "explain": true through the coordinator must come
# back with a merged plan attributing both shards, per-depth rows,
# cache status "bypass" (explain runs are never cached), and the fleet
# size the coordinator stamps on the shared answer type.
curl -fsS -X POST "http://$coord_addr/v1/query" \
    -H 'Content-Type: application/json' \
    -d '{"dataset":"brightkite","keywords":["kw0000","kw0001","kw0002","kw0003"],"group_size":3,"tenuity":1,"top_n":2,"explain":true}' \
    >"$tmp/explain.json"
grep -q '"explain"' "$tmp/explain.json"
grep -Eq '"shard":[[:space:]]*2' "$tmp/explain.json"
grep -q '"depths"' "$tmp/explain.json"
grep -Eq '"cache":[[:space:]]*"bypass"' "$tmp/explain.json"
grep -Eq '"shards_total":[[:space:]]*2' "$tmp/explain.json"

kill -TERM "$coord_pid"
wait "$coord_pid"
coord_pid=""
grep -q "ktgcoord stopped" "$tmp/coord.log"
server_pid=$shard2_pid; shard2_pid=""; stop_server
server_pid=$shard1_pid; shard1_pid=""; stop_server

grep -q '"name":"coord /v1/query"' "$tmp/coord-traces.jsonl"
grep -q '"name":"server /v1/query/partial"' "$tmp/shard-traces.jsonl"
ctid=$(sed -n 's/.*"traceId":"\([0-9a-f]\{32\}\)".*/\1/p' "$tmp/coord-traces.jsonl" | head -n 1)
[ -n "$ctid" ]
grep -q "$ctid" "$tmp/shard-traces.jsonl"

echo "verify: ok"
