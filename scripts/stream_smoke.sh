#!/usr/bin/env bash
# Stream smoke test of the sharded corpus pipeline (docs/performance.md):
# generate a 100k-loop corpus into shards with corpusgen -shards, run the
# streaming map-reduce report at 1 and 4 workers and over a resharded
# copy, and require every report to be byte-identical
# -- the determinism contract that lets CI diff corpus reports across
# machines and worker counts. Memory stays bounded: the corpus streams
# record by record and never materializes in full.
# CI runs this on every push; it is also runnable by hand from the
# repository root. Override the corpus size with STREAM_SMOKE_N.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

n="${STREAM_SMOKE_N:-100000}"

echo "== build"
go build -o "$workdir/corpusgen" ./cmd/corpusgen
go build -o "$workdir/experiments" ./cmd/experiments

echo "== generate $n loops into 4 shards"
"$workdir/corpusgen" -out "$workdir/corpus" -n "$n" -shards 4
ls -l "$workdir/corpus"

echo "== resharding invariance: the same corpus in 7 shards"
"$workdir/corpusgen" -out "$workdir/corpus7" -n "$n" -shards 7

echo "== stream report: workers 1 vs 4 must be byte-identical"
"$workdir/experiments" -stream "$workdir/corpus" -workers 1 \
  >"$workdir/w1.txt" 2>"$workdir/w1.err"
"$workdir/experiments" -stream "$workdir/corpus" -workers 4 \
  >"$workdir/w4.txt" 2>"$workdir/w4.err"
diff -u "$workdir/w1.txt" "$workdir/w4.txt"

echo "== stream report: 4 shards vs 7 shards must be byte-identical"
"$workdir/experiments" -stream "$workdir/corpus7" -workers 4 \
  >"$workdir/s7.txt" 2>"$workdir/s7.err"
diff -u "$workdir/w1.txt" "$workdir/s7.txt"

cat "$workdir/w1.txt"
echo "stream smoke: OK"
