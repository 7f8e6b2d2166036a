#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, the whole suite once under the race detector,
# then only what that pass cannot show. A lane below differs from it in a flag
# that matters: -count > 1 on tests whose interleaving or timing varies run to
# run, another module, or -bench. The long sweep stays behind `-tags soak`.
#
# Usage: scripts/ci.sh [extra go-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
test -z "$(gofmt -l . bench)" || { gofmt -l . bench; exit 1; }

echo "== full suite (race)"
go test -race "$@" ./...

echo "== live transports (race, repeated)"
# Real sockets, writer goroutines, listener kill/restart churn: a single pass
# can miss a timing-dependent race.
go test -race -count=2 ./internal/netcore ./internal/tcpnet ./internal/udpnet

echo "== cache-hit path and lock-free paths (race, repeated)"
# Callers hammer a warm key off Host.mu while entries are flushed, views are
# republished and a scraper reads; a hit's one event and one record through
# each deployment's observer chain; the virtual clock under Set/Advance/Now.
go test -race -count=5 -run 'TestNoCacheHitAfterFlushReturns|TestViewPublicationUnderLoad|TestCacheHitCountersDerived|TestHostCacheGrantersConcurrentChecks|TestCacheHitObservationContract' ./internal/core
go test -race -count=3 -run TestVirtualConcurrentMonotone ./internal/vclock

echo "== scrape under load (race, repeated)"
# /metrics and /health hammered from several goroutines while a live node
# serves checks; every exposition must parse strictly mid-load.
go test -race -count=2 -run TestConcurrentScrapeRace ./cmd/acnode

echo "== acmon e2e (repeated, no race detector)"
# The one tier-1 test known to have raced (quiescence asserted after one of
# two managers had exported): twenty runs at the tier-1 interleaving.
go test -count=20 -run TestAcmonEndToEnd ./cmd/acnode

echo "== bench module (vet + self-check)"
# bench/ is a nested module (wanac/bench, replace wanac => ../) the ./...
# patterns never see: an internal API change that breaks it must fail here.
(cd bench && go vet ./... && go test ./...)

echo "== benchmark smoke (one iteration each)"
# The only thing that executes bench_test.go's experiment drivers (E1-E11):
# catches one that fatals or hangs. Performance numbers: bash bench/run.sh.
go test -run '^$' -bench=. -benchtime=1x ./... > /dev/null

echo "== CHANGES.md line length"
# One entry is at most 12 lines x 100 columns; a line over 200 is a pasted table.
awk 'length($0) > 200 { printf "CHANGES.md:%d: %d characters\n", NR, length($0); bad = 1 } END { exit bad }' CHANGES.md

echo "CI gate passed."
