#!/usr/bin/env bash
# check-docs.sh — the docs gate's reference check: every repo file path,
# CLI flag, package-qualified Go name and test name named in
# docs/*.md, README.md and DESIGN.md must actually exist, so renamed
# files, rolled bench baselines, retired flags and deleted code cannot
# leave dead references behind.
#
# What counts as a reference:
#   * path-looking tokens rooted at a known repo directory
#     (internal/, cmd/, docs/, scripts/, examples/, bench/) or a
#     top-level UPPERCASE file (README.md, DESIGN.md, BENCH_PR10.json…);
#     tokens containing globs (*), ellipses (...) or template
#     placeholders (<...>, {...}) are skipped
#   * backtick-quoted flag tokens (`-shard-timeout`), checked as
#     flag-definition string literals in cmd/symtago
#   * backtick-quoted package-qualified exported names (`campaign.Job`,
#     `scenario.Generate(spec)`) whose package is a directory under
#     internal/, checked as top-level func/method/type/var/const
#     declarations in that package's non-test files
#   * backtick-quoted test names (`TestX`, `BenchmarkX`, `FuzzX`; a
#     /subtest suffix is ignored), checked as funcs in a _test.go file
#   * backtick-quoted HTTP routes (`GET /v1/x`, or a bare path under
#     /v1/, /metrics, /healthz, /cache/ or /debug/pprof/), checked
#     against the patterns symtago registers on its muxes
#
# Exits non-zero listing every dead reference.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
doc_files=(README.md DESIGN.md docs/*.md)

# --- file/path references -------------------------------------------------
# Strip URLs first so host/path segments are not mistaken for files.
refs=$(sed -E 's#https?://[^ )`"]+##g' "${doc_files[@]}" |
  grep -oE '(\./)?((internal|cmd|docs|scripts|examples|bench)/[A-Za-z0-9_./*-]+|[A-Z][A-Z0-9_]*\.(md|json|txt))' |
  sed 's#^\./##' | sort -u)

while IFS= read -r ref; do
  [ -z "$ref" ] && continue
  case "$ref" in
    *'*'*|*'...'*) continue ;;            # globs and ellipses are prose, not paths
  esac
  ref=${ref%.}                            # sentence-final dot
  if [ ! -e "$ref" ]; then
    echo "dead file reference: $ref" >&2
    echo "  in: $(grep -l -- "$ref" "${doc_files[@]}" | tr '\n' ' ')" >&2
    fail=1
  fi
done <<<"$refs"

# --- flag references ------------------------------------------------------
# A doc that names `-some-flag` must match a flag definition (a quoted
# "some-flag" literal alongside fs.*(...)) somewhere in cmd/symtago.
flags=$(grep -ohE '`-[a-z][a-z0-9-]*`' "${doc_files[@]}" docs/*.md | tr -d '`' | sort -u)
while IFS= read -r flag; do
  [ -z "$flag" ] && continue
  name=${flag#-}
  if ! grep -qR "\"$name\"" cmd/symtago; then
    echo "dead flag reference: $flag (no \"$name\" flag defined in cmd/symtago)" >&2
    echo "  in: $(grep -l -- "\`$flag\`" "${doc_files[@]}" | tr '\n' ' ')" >&2
    fail=1
  fi
done <<<"$flags"

# --- package-qualified Go names --------------------------------------------
# toplevel prints every name a package declares at top level: funcs and
# methods, and types, vars and consts, single or grouped.
toplevel() {
  find "internal/$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec awk '
    function first(s) { match(s, /^[A-Za-z_][A-Za-z0-9_]*/); print substr(s, RSTART, RLENGTH) }
    /^(type|var|const) \($/ { grp = 1; next }
    grp && /^\)/ { grp = 0; next }
    grp && /^\t[A-Za-z_]/ { s = $0; sub(/^\t/, "", s); first(s); next }
    /^func / { s = $0; sub(/^func (\([^)]*\) )?/, "", s); first(s); next }
    /^(type|var|const) [A-Za-z_]/ { s = $0; sub(/^(type|var|const) /, "", s); first(s) }
  ' {} +
}
names=$(grep -ohE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*' "${doc_files[@]}" | tr -d '`' | sort -u)
n_names=0
while IFS= read -r ref; do
  [ -z "$ref" ] && continue
  pkg=${ref%%.*}
  name=${ref#*.}
  [ -d "internal/$pkg" ] || continue      # not one of ours (http.Handler, json.Number…)
  n_names=$((n_names + 1))
  decls=$(toplevel "$pkg")
  if ! grep -qx -- "$name" <<<"$decls"; then
    echo "dead code reference: $ref (internal/$pkg declares no top-level $name)" >&2
    echo "  in: $(grep -l -- "\`$ref" "${doc_files[@]}" | tr '\n' ' ')" >&2
    fail=1
  fi
done <<<"$names"

# --- test names -----------------------------------------------------------
tests=$(grep -ohE '`(Test|Benchmark|Fuzz)[A-Za-z0-9_]+' "${doc_files[@]}" | tr -d '`' | sort -u)
test_files=$(find . -name .git -prune -o -name .bench_build -prune -o -name '*_test.go' -print)
while IFS= read -r name; do
  [ -z "$name" ] && continue
  if ! grep -qE "^func $name\(" $test_files; then
    echo "dead test reference: $name (no func $name in a _test.go file)" >&2
    echo "  in: $(grep -l -- "\`$name" "${doc_files[@]}" | tr '\n' ' ')" >&2
    fail=1
  fi
done <<<"$tests"

# --- HTTP routes -------------------------------------------------------------
# Registered patterns: the first argument of every HandleFunc (and of
# the service's ops/route helpers) in the service, the shard worker,
# the cacheserver and the pprof mux, with path constants of distrib and
# cache substituted. A pattern naming anything else is skipped.
route_consts=$(find internal/distrib internal/cache -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec \
  sed -nE 's/^(const )?[[:space:]]*([A-Z][A-Za-z0-9_]*)[[:space:]]*=[[:space:]]*"([^"]*)".*/\2 \3/p' {} +)
patterns=$(find internal/service internal/distrib internal/cacheserver cmd/symtago -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec \
  sed -nE 's/.*(HandleFunc|[^A-Za-z_.]ops|[^A-Za-z_.]route)\(([^,]*),.*/\2/p' {} + |
  awk -v consts="$route_consts" '
    BEGIN { n = split(consts, cl, "\n"); for (i = 1; i <= n; i++) { split(cl[i], kv, " "); val[kv[1]] = kv[2] } }
    {
      out = ""; n = split($0, terms, "+")
      for (i = 1; i <= n; i++) {
        t = terms[i]; gsub(/^[[:space:]]+|[[:space:]]+$/, "", t)
        if (t ~ /^".*"$/) { out = out substr(t, 2, length(t) - 2); continue }
        sub(/^[a-z][a-z0-9]*\./, "", t)
        if (!(t in val)) next
        out = out val[t]
      }
      if (out ~ /^([A-Z]+ )?\//) print out
    }' | sort -u)
routes=$(grep -ohE '`((GET|HEAD|POST|PUT|DELETE|PATCH) )?/[^` ]*`' "${doc_files[@]}" | tr -d '`' |
  grep -E '^[A-Z]+ /|^/(v1/|metrics|healthz|cache/|debug/pprof/)' | sort -u)
n_routes=$(grep -c . <<<"$routes" || true)
# A doc route matches a pattern when the methods agree (a pattern
# without one takes any; GET also answers HEAD), and the paths agree
# segment by segment: {x} on either side takes one segment, and a
# pattern ending in / takes its whole subtree. [?...] and ?... are ignored.
dead_routes=$(awk -v pats="$patterns" '
  function split_route(r, parts) {
    parts["m"] = ""
    if (r ~ /^[A-Z]+ /) { parts["m"] = substr(r, 1, index(r, " ") - 1); r = substr(r, index(r, " ") + 1) }
    sub(/[[?].*/, "", r)
    parts["p"] = r
  }
  function wild(seg) { return seg ~ /^\{[^}]*\}$/ }
  function path_ok(d, p,   nd, np, ds, ps, i, subtree) {
    nd = split(d, ds, "/"); np = split(p, ps, "/")
    subtree = p ~ /\/$/
    if (subtree) { np--; if (nd < np) return 0 } else if (nd != np) return 0
    for (i = 1; i <= np; i++) {
      if (ds[i] == ps[i]) continue
      if ((wild(ds[i]) || wild(ps[i])) && ds[i] != "" && ps[i] != "") continue
      return 0
    }
    return 1
  }
  function method_ok(dm, pm) { return pm == "" || dm == "" || dm == pm || (dm == "HEAD" && pm == "GET") }
  BEGIN { np = split(pats, pl, "\n") }
  NF {
    split_route($0, d)
    for (i = 1; i <= np; i++) {
      split_route(pl[i], p)
      if (method_ok(d["m"], p["m"]) && path_ok(d["p"], p["p"])) next
    }
    print
  }' <<<"$routes")
while IFS= read -r route; do
  [ -z "$route" ] && continue
  echo "dead route reference: $route (symtago registers no matching pattern)" >&2
  echo "  in: $(grep -lF -- "\`$route\`" "${doc_files[@]}" | tr '\n' ' ')" >&2
  fail=1
done <<<"$dead_routes"

if [ "$fail" -ne 0 ]; then
  echo "docs reference check FAILED" >&2
  exit 1
fi
n_refs=$(wc -l <<<"$refs" | tr -d ' ')
n_flags=$(wc -l <<<"$flags" | tr -d ' ')
n_tests=$(grep -c . <<<"$tests" || true)
echo "docs reference check ok: $n_refs paths, $n_flags flags, $n_names package-qualified names, $n_tests test names and $n_routes routes verified across ${#doc_files[@]} docs"
