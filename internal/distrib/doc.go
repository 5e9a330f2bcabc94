// Package distrib fans a campaign out over worker processes: a
// coordinator splits the pending scenario set into contiguous shards,
// ships each shard as a spec-only corpus reference plus an index range
// over HTTP/JSON (the worker generates exactly that range; nothing
// heavyweight travels), and folds the returned rows and partial
// fingerprints back into the job by index, so the merged report is
// byte-identical to a local campaign.Run for any worker count, shard
// size, or failure schedule. Failed or timed-out shards are retried
// whole on surviving workers; a worker that keeps failing is dropped.
// This is the fleet-scale execution mode of the paper's integration
// workflow: a supplier change is validated against tens of thousands
// of drawn configurations in the time one machine would spend on a
// fraction of them.
package distrib
