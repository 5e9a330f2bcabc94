#!/usr/bin/env bash
# distrib-gate.sh — the kill-a-worker correctness gate.
#
# Starts two shard workers, runs the same campaign twice — serially and
# distributed across the workers (streamed shard specs, one shard in
# flight per worker, compressed rows) — and KILLs one worker as soon as
# it has completed its first shard. The coordinator must retry the lost
# worker's shards on the survivor and the folded report must stay
# byte-identical to the serial run. Any diff (or a failed campaign) is
# a correctness bug, never a flake: the corpus is seeded and rows fold
# by index.
#
# Usage: scripts/distrib-gate.sh [path-to-symtago]
set -euo pipefail

bin=${1:-./symtago}
w1_addr=127.0.0.1:8571
w2_addr=127.0.0.1:8572
work=$(mktemp -d)
# Each job PID is killed on its own (one quoted "$(jobs -p)" would hand
# kill a single newline-joined argument), and the jobs are reaped before
# their work dir goes away.
cleanup() {
  local pid
  for pid in $(jobs -p); do
    kill "$pid" >/dev/null 2>&1 || true
  done
  wait >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

"$bin" worker -addr "$w1_addr" >"$work/w1.log" 2>&1 &
"$bin" worker -addr "$w2_addr" >"$work/w2.log" 2>&1 &
w2=$!

for _ in $(seq 100); do
  if curl -sf "http://$w1_addr/healthz" >/dev/null 2>&1 &&
     curl -sf "http://$w2_addr/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
curl -sf "http://$w1_addr/healthz" >/dev/null
curl -sf "http://$w2_addr/healthz" >/dev/null

campaign_flags=(-n 512 -seed 12 -seeds 1 -duration 50ms)

echo "distrib-gate: serial reference run"
"$bin" campaign "${campaign_flags[@]}" >"$work/serial.txt"

echo "distrib-gate: distributed run (kill worker 2 after its first shard)"
"$bin" campaign "${campaign_flags[@]}" \
  -workers-addr "http://$w1_addr,http://$w2_addr" -shard 16 \
  >"$work/distributed.txt" 2>"$work/shards.log" &
camp=$!
for _ in $(seq 600); do
  if grep -q "done on http://$w2_addr" "$work/shards.log" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
kill -KILL "$w2" 2>/dev/null || true
echo "distrib-gate: worker 2 killed"
wait "$camp"

# The wall-time line is the only legitimately nondeterministic output.
grep -v '^wall time' "$work/serial.txt" >"$work/serial.cmp"
grep -v '^wall time' "$work/distributed.txt" >"$work/distributed.cmp"
if ! diff -u "$work/serial.cmp" "$work/distributed.cmp"; then
  echo "distrib-gate: folded report differs from the serial run" >&2
  sed -n '1,20p' "$work/shards.log" >&2
  exit 1
fi
# The coordinator's stats line proves rows actually travelled
# compressed (nonzero bytes on wire) through the streamed protocol.
if ! grep -Eq 'distributed: [0-9]+ shards, [0-9]+ retries, [0-9]+ workers dropped, [1-9][0-9]* B on wire' "$work/shards.log"; then
  echo "distrib-gate: missing or zero-byte distributed stats line" >&2
  sed -n '1,20p' "$work/shards.log" >&2
  exit 1
fi
echo "distrib-gate: PASS — folded report byte-identical to the serial run under a worker kill"
