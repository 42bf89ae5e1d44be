#!/bin/sh
# Store smoke gate: the result store must be invisible in the results.
# Runs the default Tiny sweep cold into an empty store, again with no
# store, and byte-compares the two; then repeats the run against the
# warmed store and requires byte-identical output with 100% cache hits
# and nothing executed.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/dtnflow-fleet" ./cmd/dtnflow-fleet

echo "fleet-smoke: cold run (empty store)"
"$tmp/dtnflow-fleet" -q -json -store "$tmp/store" -report "$tmp/cold.json" > "$tmp/cold.out"

echo "fleet-smoke: reference run (no store)"
"$tmp/dtnflow-fleet" -q -json > "$tmp/nostore.out"

if ! cmp -s "$tmp/cold.out" "$tmp/nostore.out"; then
    echo "fleet-smoke: FAIL: cold store run differs from the run without a store" >&2
    diff "$tmp/nostore.out" "$tmp/cold.out" >&2 || true
    exit 1
fi

echo "fleet-smoke: warm run (same store)"
"$tmp/dtnflow-fleet" -q -json -store "$tmp/store" -report "$tmp/warm.json" > "$tmp/warm.out"

if ! cmp -s "$tmp/cold.out" "$tmp/warm.out"; then
    echo "fleet-smoke: FAIL: warm run output differs from cold run" >&2
    exit 1
fi

# The report JSON is indented one field per line; pull the counters out.
cells=$(sed -n 's/.*"cells": \([0-9]*\).*/\1/p' "$tmp/warm.json")
hits=$(sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p' "$tmp/warm.json")
executed=$(sed -n 's/.*"executed": \([0-9]*\).*/\1/p' "$tmp/warm.json")
if [ -z "$cells" ] || [ "$cells" -eq 0 ] || [ "$hits" != "$cells" ] || [ "$executed" != "0" ]; then
    echo "fleet-smoke: FAIL: warm run not fully cached (cells=$cells hits=$hits executed=$executed)" >&2
    cat "$tmp/warm.json" >&2
    exit 1
fi

echo "fleet-smoke: OK ($cells cells byte-identical across cold, storeless and cached runs)"
