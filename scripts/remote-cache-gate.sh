#!/usr/bin/env bash
# remote-cache-gate.sh — the fleet-shared cache correctness gate.
#
# Starts one cacheserver and two shard workers wired to it with
# -remote-cache (each worker keeps a private local disk tier, so the
# full L1/L2/L3 stack is live), then runs the same campaign three ways:
#
#   1. serially with no cache at all — the reference report;
#   2. cold distributed — KILLing worker 2 as soon as it has completed
#      its first shard (the coordinator must retry the lost shards on
#      the survivor while both keep publishing to the fleet tier);
#   3. warm distributed — worker 2 restarted with an EMPTY private
#      cache dir, so its shards can only be warm if the fleet tier
#      actually serves them.
#
# Both distributed reports must be byte-identical to the serial run,
# and after the warm run the cacheserver's /metrics GET-hit counter
# must have moved. Any diff (or a zero hit count) is a correctness bug,
# never a flake: the corpus is seeded and rows fold by index.
#
# Usage: scripts/remote-cache-gate.sh [path-to-symtago]
set -euo pipefail

bin=${1:-./symtago}
cs_addr=127.0.0.1:8575
w1_addr=127.0.0.1:8576
w2_addr=127.0.0.1:8577
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

"$bin" cacheserver -addr "$cs_addr" -cache-dir "$work/fleet" >"$work/cs.log" 2>&1 &
"$bin" worker -addr "$w1_addr" -cache-dir "$work/w1" \
  -remote-cache "http://$cs_addr" >"$work/w1.log" 2>&1 &
"$bin" worker -addr "$w2_addr" -cache-dir "$work/w2" \
  -remote-cache "http://$cs_addr" >"$work/w2.log" 2>&1 &
w2=$!

for _ in $(seq 100); do
  if curl -sf "http://$cs_addr/healthz" >/dev/null 2>&1 &&
     curl -sf "http://$w1_addr/healthz" >/dev/null 2>&1 &&
     curl -sf "http://$w2_addr/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
curl -sf "http://$cs_addr/healthz" >/dev/null
curl -sf "http://$w1_addr/healthz" >/dev/null
curl -sf "http://$w2_addr/healthz" >/dev/null

campaign_flags=(-n 256 -seed 17 -seeds 1 -duration 50ms)
distrib_flags=(-workers-addr "http://$w1_addr,http://$w2_addr" -shard 16)

echo "remote-cache-gate: serial reference run"
"$bin" campaign "${campaign_flags[@]}" >"$work/serial.txt"

echo "remote-cache-gate: cold distributed run (kill worker 2 after its first shard)"
"$bin" campaign "${campaign_flags[@]}" "${distrib_flags[@]}" \
  >"$work/cold.txt" 2>"$work/cold-shards.log" &
camp=$!
for _ in $(seq 600); do
  if grep -q "done on http://$w2_addr" "$work/cold-shards.log" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
kill -KILL "$w2" 2>/dev/null || true
echo "remote-cache-gate: worker 2 killed"
wait "$camp"

# Restart worker 2 with a FRESH private cache dir: in the warm run its
# shards can only be cheap if the fleet tier serves them.
"$bin" worker -addr "$w2_addr" -cache-dir "$work/w2-fresh" \
  -remote-cache "http://$cs_addr" >"$work/w2b.log" 2>&1 &
for _ in $(seq 100); do
  if curl -sf "http://$w2_addr/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
curl -sf "http://$w2_addr/healthz" >/dev/null

echo "remote-cache-gate: warm distributed run on the populated fleet tier"
"$bin" campaign "${campaign_flags[@]}" "${distrib_flags[@]}" \
  >"$work/warm.txt" 2>"$work/warm-shards.log"

# The wall-time line is the only legitimately nondeterministic output.
for run in serial cold warm; do
  grep -v '^wall time' "$work/$run.txt" >"$work/$run.cmp"
done
for run in cold warm; do
  if ! diff -u "$work/serial.cmp" "$work/$run.cmp"; then
    echo "remote-cache-gate: $run distributed report differs from the serial run" >&2
    sed -n '1,20p' "$work/$run-shards.log" >&2
    exit 1
  fi
done

# The fleet tier must have actually served the warm run: the
# cacheserver's GET-hit counter is the ground truth, scraped from its
# own /metrics exposition.
hits=$(curl -sf "http://$cs_addr/metrics" |
  awk '$1 == "symtago_cacheserver_requests_total{method=\"get\",outcome=\"hit\"}" {print $2}')
hits=${hits:-0}
if [ "$hits" -le 0 ]; then
  echo "remote-cache-gate: cacheserver served no GET hits (counter=$hits)" >&2
  curl -sf "http://$cs_addr/metrics" | sed -n '1,40p' >&2
  exit 1
fi
echo "remote-cache-gate: PASS — reports byte-identical under a worker kill, fleet tier served $hits hits"
