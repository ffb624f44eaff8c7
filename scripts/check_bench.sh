#!/bin/sh
# Perf-drift gate: re-run the "small" committed-baseline experiment
# (internal/expr, the same sweep `ktgbench -exp small` runs) and compare
# each measurement row against the checked-in BENCH_small.json. A row
# whose mean latency or explored nodes grew beyond 2x the baseline fails
# the gate; smaller regressions only warn, which keeps the gate robust
# against machine-to-machine noise while still catching real blowups
# (a broken prune bound shows up as 10-1000x, not 1.3x).
#
# Search effort does not depend on machine speed, so a row that no query
# cut short (exhausted == 0 in both the baseline and the fresh run) is
# gated exactly: nodes, prunes and k-line filter removals must equal the
# baseline, and the index calls must not exceed it.
#
# Env knobs:
#   CHECK_BENCH_FAIL_RATIO  ratio that fails the gate   (default 2.0)
#   CHECK_BENCH_WARN_RATIO  ratio that warns            (default 1.25)
#   CHECK_BENCH_SCALE       override dataset scale      (skips the gate)
#   CHECK_BENCH_QUERIES     override queries per point  (skips the gate)
#
# Refresh the baseline after an intentional perf change with:
#   go run ./cmd/ktgbench -exp small -json . -force
set -eu
cd "$(dirname "$0")/.."

BASELINE=BENCH_small.json
FAIL_RATIO=${CHECK_BENCH_FAIL_RATIO:-2.0}
WARN_RATIO=${CHECK_BENCH_WARN_RATIO:-1.25}

if ! command -v jq >/dev/null 2>&1; then
    echo "check_bench: jq not installed; SKIPPING the benchmark regression gate" >&2
    exit 0
fi
if [ ! -f "$BASELINE" ]; then
    echo "check_bench: $BASELINE missing (generate with: go run ./cmd/ktgbench -exp small -json .)" >&2
    exit 1
fi

base_scale=$(jq -r .scale "$BASELINE")
base_queries=$(jq -r .queries "$BASELINE")
scale=${CHECK_BENCH_SCALE:-$base_scale}
queries=${CHECK_BENCH_QUERIES:-$base_queries}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "check_bench: running experiment small (scale=$scale, $queries queries/point)..." >&2
go run ./cmd/ktgbench -exp small -scale "$scale" -queries "$queries" -quiet -json "$tmp" >/dev/null

if [ "$scale" != "$base_scale" ] || [ "$queries" != "$base_queries" ]; then
    echo "check_bench: scale/queries overridden ($scale/$queries vs baseline $base_scale/$base_queries); sweep ran but the ratio gate is SKIPPED" >&2
    exit 0
fi

report=$(jq -r --argjson fail "$FAIL_RATIO" --argjson warn "$WARN_RATIO" \
    --slurpfile new "$tmp/BENCH_small.json" '
  def key: "\(.dataset) \(.param)=\(.value) \(.algo)";
  ($new[0].rows | INDEX(key)) as $n
  | .rows[] | . as $b | $n[key] as $r
  | if $r == null then "MISS \(key): row absent from the fresh run"
    else
      (if $b.ns_per_op > 0 then $r.ns_per_op / $b.ns_per_op else 1 end) as $lat
      | (if $b.nodes_per_op > 0 then $r.nodes_per_op / $b.nodes_per_op else 1 end) as $nodes
      | (if $b.exhausted == 0 and $r.exhausted == 0 then
           [ ("nodes_per_op", "prunes_per_op", "filtered_per_op") as $f
             | select($r[$f] != $b[$f]) | "\($f) \($b[$f]) -> \($r[$f])" ]
           + [ select($r.oracle_calls_per_op > $b.oracle_calls_per_op)
             | "oracle_calls_per_op \($b.oracle_calls_per_op) -> \($r.oracle_calls_per_op)" ]
         else [] end) as $drift
      | (if $lat >= $fail or $nodes >= $fail or ($drift | length) > 0 then "FAIL"
         elif $lat >= $warn or $nodes >= $warn then "WARN"
         else "ok" end)
        + " \(key): latency x\($lat * 100 | round / 100) (\($b.ns_per_op) -> \($r.ns_per_op) ns/op), nodes x\($nodes * 100 | round / 100)"
        + (if ($drift | length) > 0 then ", deterministic counts drifted: " + ($drift | join(", ")) else "" end)
    end
' "$BASELINE")

echo "$report"
if echo "$report" | grep -Eq '^(FAIL|MISS)'; then
    echo "check_bench: FAILED — a row regressed beyond ${FAIL_RATIO}x the committed baseline or its deterministic counts drifted" >&2
    exit 1
fi
if echo "$report" | grep -q '^WARN'; then
    echo "check_bench: ok (with warnings — regressions below the ${FAIL_RATIO}x gate)"
else
    echo "check_bench: ok"
fi
