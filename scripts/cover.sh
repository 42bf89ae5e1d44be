#!/bin/sh
# Coverage gate: per-package statement-coverage floors over ./internal/...
#
# Usage:
#   scripts/cover.sh [profile.out]
#
# Runs the short test suite with -coverprofile, renders an HTML report next
# to the profile, and fails if any internal package drops below its floor.
# Floors are the coverage measured when the gate was introduced minus two
# points of headroom; raise a package's floor when its coverage improves,
# and never lower one without review. A package listed here that vanishes
# from the test output also fails the gate.
set -eu
cd "$(dirname "$0")/.."

profile="${1:-cover.out}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

go test -short -coverprofile="$profile" ./internal/... | tee "$out"
go tool cover -html="$profile" -o "${profile%.out}.html"

awk '
BEGIN {
    floor["repro/internal/baselines"]  = 77.3
    floor["repro/internal/core"]       = 79.6
    floor["repro/internal/disrupt"]    = 89.2
    floor["repro/internal/experiment"] = 41.6
    floor["repro/internal/fleet"]      = 86.5
    floor["repro/internal/geo"]        = 94.6
    floor["repro/internal/landmark"]   = 98.0
    floor["repro/internal/metrics"]    = 94.8
    floor["repro/internal/oracle"]     = 94.1
    floor["repro/internal/predict"]    = 97.4
    floor["repro/internal/routing"]    = 96.0
    floor["repro/internal/sim"]        = 81.9
    floor["repro/internal/synth"]      = 95.2
    floor["repro/internal/telemetry"]  = 88.3
    floor["repro/internal/trace"]      = 88.2
    floor["repro/internal/validate"]   = 67.6
    bad = 0
}
$1 == "ok" && /coverage:/ {
    pkg = $2
    pct = ""
    for (i = 1; i <= NF; i++)
        if ($i == "coverage:") { pct = $(i + 1); sub(/%$/, "", pct) }
    if (pkg in floor) {
        seen[pkg] = 1
        if (pct + 0 < floor[pkg]) {
            printf "FAIL coverage gate: %s at %.1f%%, floor %.1f%%\n", pkg, pct, floor[pkg]
            bad = 1
        }
    }
}
END {
    for (pkg in floor)
        if (!(pkg in seen)) {
            printf "FAIL coverage gate: no coverage reported for %s\n", pkg
            bad = 1
        }
    if (bad) exit 1
    print "coverage gate: all floors met"
}
' "$out"
