#!/usr/bin/env bash
# verify.sh — the repository's one verification entry point. CI's core
# gate runs exactly this; run it locally before pushing and the two
# cannot disagree about what "clean" means.
#
# Steps, in order (fail-fast):
#   1. go vet
#   2. go build
#   3. vetadr, all rules, whole tree        (exit 1 on any finding)
#   4. vetadr -suppressions                 (stale rule / empty reason)
#   5. README rule catalogue in sync        (scripts/update-rule-catalogue.sh -check)
#   6. go test -race                        (-quick: go test -short, no race)
#   7. workload smoke: IN2P3 adapt + fit + 2x upscale replay, scenario
#      report into out/workload-report.txt
#
# Usage:
#   scripts/verify.sh          # the full gate, what CI runs
#   scripts/verify.sh -quick   # -short tests, no race detector
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

quick=0
case "${1:-}" in
    "") ;;
    -quick) quick=1 ;;
    *) echo "usage: scripts/verify.sh [-quick]" >&2; exit 2 ;;
esac

step() { printf '\n--- %s\n' "$*"; }

step "go vet"
go vet ./...

step "go build"
go build ./...

step "static analysis (vetadr, all rules)"
go run ./cmd/vetadr ./...

step "suppression audit (vetadr -suppressions)"
go run ./cmd/vetadr -suppressions ./...

step "rule catalogue in sync with the analyzer registry"
"$ROOT/scripts/update-rule-catalogue.sh" -check

if [ "$quick" = 1 ]; then
    step "go test -short"
    go test -short ./...
else
    step "go test -race"
    go test -race ./...
fi

step "workload smoke (IN2P3 adapt + fit + 2x upscale + scenario report)"
mkdir -p out
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
go run ./cmd/tracegen -out "$smoke/real" -seed 7 \
    -from-in2p3 internal/workload/testdata/in2p3_sample.csv -fit "$smoke/model.json"
go run ./cmd/tracegen -out "$smoke/big" -seed 7 \
    -model "$smoke/model.json" -scale 2 -vfs-snapshot-out "$smoke/big.snap"
go run ./cmd/simulate -data "$smoke/big" -vfs-snapshot "$smoke/big.snap" \
    -lifetime 90 -interval 7 -target 0.5 >/dev/null
go run ./cmd/report -data "$smoke/real" -fig workload -o out/workload-report.txt
grep -q 'regen 10x' out/workload-report.txt

printf '\nverify: OK\n'
