#!/usr/bin/env bash
# trace-gate.sh — the tracing-changes-nothing gate.
#
# Starts two shard workers and runs the same distributed campaign
# twice: once untraced and once with -trace-out. The gate then asserts
# the tentpole invariants of the observability layer:
#
#   1. the traced report is byte-identical to the untraced one (tracing
#      only observes, it never steers);
#   2. the trace is one connected whole: the coordinator's dispatch
#      spans AND the worker-side execution spans of BOTH workers are
#      present (propagated over X-Trace-Id, spliced back via the
#      shard response);
#   3. every scenario span carries one cache.l1 span, and their hits
#      and misses sum to the scenario spans' cache_hits and
#      cache_misses: the spans and the rows read one cache accountant.
#
# Any failure is a correctness bug, never a flake: the corpus is seeded
# and the span names are structural, not timing-dependent.
#
# Usage: scripts/trace-gate.sh [path-to-symtago]
set -euo pipefail

bin=${1:-./symtago}
w1_addr=127.0.0.1:8573
w2_addr=127.0.0.1:8574
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

for _ in $(seq 100); do
  if curl -sf "http://$w1_addr/healthz" >/dev/null 2>&1 &&
     curl -sf "http://$w2_addr/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
curl -sf "http://$w1_addr/healthz" >/dev/null
curl -sf "http://$w2_addr/healthz" >/dev/null

campaign_flags=(-n 256 -seed 21 -seeds 1 -duration 50ms
  -workers-addr "http://$w1_addr,http://$w2_addr" -shard 16)

echo "trace-gate: untraced distributed run"
"$bin" campaign "${campaign_flags[@]}" >"$work/plain.txt" 2>/dev/null

echo "trace-gate: traced distributed run"
"$bin" campaign "${campaign_flags[@]}" -trace-out "$work/trace.json" \
  >"$work/traced.txt" 2>/dev/null

# 1. Byte-identity. The wall-time line and the trace-written banner are
# the only legitimate differences.
grep -v '^wall time' "$work/plain.txt" >"$work/plain.cmp"
grep -v -e '^wall time' -e '^trace (' "$work/traced.txt" >"$work/traced.cmp"
if ! diff -u "$work/plain.cmp" "$work/traced.cmp"; then
  echo "trace-gate: traced report differs from the untraced run" >&2
  exit 1
fi
echo "trace-gate: traced report byte-identical to the untraced run"

# 2 + 3. Structural span assertions over the Chrome trace.
python3 - "$work/trace.json" "$w1_addr" "$w2_addr" <<'PY'
import json, sys
trace, w1, w2 = sys.argv[1:4]
d = json.load(open(trace))
events = d["traceEvents"]
names = {}
for e in events:
    names[e["name"]] = names.get(e["name"], 0) + 1

def need(name, why):
    if not names.get(name):
        sys.exit(f"trace-gate: no {name!r} span ({why})")

need("campaign.run", "coordinator root")
need("shard.dispatch", "coordinator dispatch")
need("worker.shard", "worker-side execution came back over the wire")
need("scenario", "per-scenario pipeline spans")
need("cache.l1", "cache-tier lookups")
if names["cache.l1"] != names["scenario"]:
    sys.exit("trace-gate: %d cache.l1 spans for %d scenario spans"
             % (names["cache.l1"], names["scenario"]))
def total(name, key):
    return sum(int(e["args"][key]) for e in events if e["name"] == name)
for span_key, row_key in (("hits", "cache_hits"), ("misses", "cache_misses")):
    spans, rows = total("cache.l1", span_key), total("scenario", row_key)
    if spans != rows:
        sys.exit(f"trace-gate: cache.l1 {span_key} sum to {spans}, "
                 f"the scenario spans' {row_key} to {rows}")

# Every shard's worker-side spans must be present: as many worker.shard
# roots as dispatch attempts that succeeded, and both workers must have
# contributed (the dispatch span records its worker).
workers = set()
for e in events:
    if e["name"] == "shard.dispatch":
        workers.add(e.get("args", {}).get("worker", ""))
missing = {f"http://{w1}", f"http://{w2}"} - workers
if missing:
    sys.exit(f"trace-gate: no dispatch spans for {sorted(missing)} — "
             "one worker never appears in the trace")
if names["worker.shard"] < names["shard.dispatch"]:
    sys.exit("trace-gate: %d worker.shard spans for %d dispatches — "
             "some shard executed without returning its spans"
             % (names["worker.shard"], names["shard.dispatch"]))
print(f"trace-gate: {len(events)} spans, both workers present, "
      f"{names['worker.shard']} worker-side shard traces, "
      f"{names['cache.l1']} cache.l1 spans agree with the rows")
PY

echo "trace-gate: PASS — one connected trace across coordinator and both workers, report unchanged"
