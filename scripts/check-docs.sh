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
#   * backtick-quoted flag tokens (`-pipeline-depth`), checked as
#     flag-definition string literals in cmd/symtago
#   * backtick-quoted package-qualified exported names (`campaign.Job`,
#     `scenario.Generate(spec)`) whose package is a directory under
#     internal/, checked as top-level func/method/type/var/const
#     declarations in that package's non-test files
#   * backtick-quoted test names (`TestX`, `BenchmarkX`, `FuzzX`; a
#     /subtest suffix is ignored), checked as funcs in a _test.go file
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

if [ "$fail" -ne 0 ]; then
  echo "docs reference check FAILED" >&2
  exit 1
fi
n_refs=$(wc -l <<<"$refs" | tr -d ' ')
n_flags=$(wc -l <<<"$flags" | tr -d ' ')
n_tests=$(grep -c . <<<"$tests" || true)
echo "docs reference check ok: $n_refs paths, $n_flags flags, $n_names package-qualified names and $n_tests test names verified across ${#doc_files[@]} docs"
