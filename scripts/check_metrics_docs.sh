#!/bin/sh
# Metrics-drift gate, both directions:
#   - every statically named ktg_* metric in the ktg module's non-test Go
#     code must appear in README.md;
#   - every metric in README.md's metrics reference table must still be
#     named in that code, so a deleted metric cannot linger in the docs.
# The scan covers the packages of the ktg module only (go list ./...),
# which leaves out perfbench/, a separate Go module whose scraper names
# Prometheus sample series such as ktg_wal_fsync_latency_ns_count.
set -eu
cd "$(dirname "$0")/.."

code=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... \
    | xargs grep -hoE '"ktg_[a-zA-Z0-9_]+"' | tr -d '"' | sort -u)
documented=$(awk '/^### Metrics reference/ {on = 1; next} /^##/ {on = 0} on' README.md \
    | grep -oE '^\| `ktg_[a-zA-Z0-9_]+`' | tr -d '|` ' | sort -u)

status=0
for name in $code; do
    if ! grep -q "$name" README.md; then
        echo "check_metrics_docs: $name is registered in code but undocumented in README.md" >&2
        status=1
    fi
done
for name in $documented; do
    if ! printf '%s\n' "$code" | grep -qx "$name"; then
        echo "check_metrics_docs: $name is in README.md's metrics reference but registered nowhere in code" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "check_metrics_docs: ok ($(printf '%s\n' "$documented" | wc -l) documented metrics)"
exit "$status"
