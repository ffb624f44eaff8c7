package index

import "ktg/internal/obs"

// Default-registry metrics of the index builders; they surface on
// /metrics and /debug/vars whenever a debug server is running.
var (
	mIndexBuilds = obs.Default().Counter(
		"ktg_index_builds_total", "distance indexes constructed (NL + NLRNL)")
	mIndexBuildNanos = obs.Default().Histogram(
		"ktg_index_build_ns", "wall-clock index construction time in nanoseconds")
)
