package main

import (
	"flag"
	"strings"

	"repro/internal/campaign"
)

// The flag helpers below register the flags shared by many
// subcommands, so name, default and help text stay uniform across the
// CLI (and docs/cli.md documents them once).

// kmatrixFlag registers the uniform -kmatrix flag.
func kmatrixFlag(fs *flag.FlagSet) *string {
	return fs.String("kmatrix", "", "K-Matrix CSV (default: built-in case study)")
}

// scenarioFlag registers the uniform -scenario flag (see
// scenarioConfig for the mapping).
func scenarioFlag(fs *flag.FlagSet) *string {
	return fs.String("scenario", "worst", "best or worst")
}

// workersFlag registers the uniform -workers flag of the parallel
// drivers.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
}

// shardFlag registers the uniform -shard flag of the distributed
// campaign coordinators.
func shardFlag(fs *flag.FlagSet) *int {
	return fs.Int("shard", 0, "scenarios per distributed shard (0 = 256, at most 4096)")
}

// checkShard rejects a -shard value larger than the shard a worker
// accepts.
func checkShard(cmd string, n int) error {
	if n > campaign.MaxShardSize {
		return usageErrf("%s: -shard %d exceeds the maximum shard size %d", cmd, n, campaign.MaxShardSize)
	}
	return nil
}

// remoteCacheFlag registers the uniform -remote-cache flag.
func remoteCacheFlag(fs *flag.FlagSet) *string {
	return fs.String("remote-cache", "", "cacheserver base URL for the fleet-shared result tier (empty = off)")
}

// splitAddrs parses a comma-separated -workers-addr value into the
// list of worker base URLs, dropping empty segments.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
