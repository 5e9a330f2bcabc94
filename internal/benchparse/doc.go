// Package benchparse turns `go test -bench` output into the
// machine-readable BENCH_*.json artifact CI gates on: it parses
// benchfmt result lines (ns/op, B/op, allocs/op plus every
// b.ReportMetric custom unit such as the what-if speedup, campaign
// scenarios/s and netsim frames/s), folds repeated -count runs into
// per-metric medians, and compares two such files with a direction-
// aware regression threshold (the what-if speedup ratio is reported,
// not gated). The cmd/benchjson CLI is its front end.
package benchparse
