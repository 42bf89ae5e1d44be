#!/bin/sh
# Pre-merge hygiene gate: formatting, vet, the race detector over the
# packages that share state across goroutines (the parallel experiment
# sweep, the engine it drives, and the fleet cell runner, whose pool
# issues concurrent store Puts),
# the validation battery — invariant checker, checker-neutrality, fork
# equivalence, the O1-O4 paper-fidelity checks at tiny scale, and the
# disrupted-scenario section (outage / churn / storm presets, every
# method checker-clean and classic == sharded) — and the store smoke
# (cold store run byte-compared against a storeless run plus the
# 100%-cache-hit re-run).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./internal/experiment ./internal/sim ./internal/fleet
go run ./cmd/dtnflow-validate
./scripts/fleet-smoke.sh

echo "check.sh: all clean"
