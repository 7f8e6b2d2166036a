#!/usr/bin/env bash
# Tier-1 CI gate: build everything, vet, then run the full test suite with
# the race detector on. The harness quick sweep (internal/harness) and the
# checker CLI self-test (cmd/acchk) are ordinary tests, so they run here
# too; the long randomized sweep stays behind `-tags soak` (see README,
# "Testing and verification").
#
# Usage: scripts/ci.sh [extra go-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test -race"
go test -race "$@" ./...

echo "== transport churn (race, repeated)"
# The live transports carry real deployments: rerun their suites — including
# the listener kill/restart churn tests — to shake out timing-dependent
# races a single pass can miss.
go test -race -count=2 ./internal/netcore ./internal/tcpnet ./internal/udpnet

echo "== batched wire protocol (race, repeated)"
# The wire.Batch codec round trips every coalesced flush rests on. (The
# netcore batching suite — coalescing, splits, compaction, partial writes —
# already runs whole, at this -race -count=2, in the transport churn lane.)
go test -race -count=2 -run 'Batch' ./internal/wire

echo "== observers: endpoint smokes, goldens, exactness (race)"
# internal/telemetry, internal/flight, internal/audit, cmd/acflight,
# cmd/acaudit and cmd/acctl ran whole under -race in the pass above; what is
# rerun here by name is what a single pass can miss or what guards a
# contract. The live /debug/flight and /debug/audit endpoints (the latter
# with -audit.jsonl streaming), and acnode's process log staying silent and
# allocation-free on a warm check; the acflight timeline and acaudit
# evidence-chain goldens (testdata/*.golden — the bytes operators diff);
# the host/manager emission-exactness tests, where records, HostStats and
# the reason-labeled counters must agree record for record, with the
# audit-completeness oracle; and the cached-check allocation budgets with
# each observer attached (0 allocs/op).
go test -race -count=1 -run 'TestDebugFlightEndpoint|TestDebugAuditEndpoint|TestWarmCheckLogsNothingAtInfo|TestTimelineGolden|TestExplainGolden' \
	./cmd/acnode ./cmd/acflight ./cmd/acaudit
go test -race -count=2 -run 'Audit' ./internal/core ./internal/harness ./internal/scenario
go test -race -count=1 -run 'TestCacheHitCheckAllocationBudget' .

echo "== check hot path off the host lock (race, repeated)"
# A cache hit decides without Host.mu: callers hammer a warm key while a
# RevokeNotice, a Reset and a full-set quorum deny remove the entry — no
# check started after the removal returned may hit, and HostStats, the
# audit ring and both counter families must agree exactly afterwards —
# and while SetAudit/SetTelemetry/RegisterApp republish the view checks
# read. Interleavings differ run to run, hence the count. A hit is one
# observation — its two trace events go down the tracer chain as a pair and
# its counters are derived from one atomic — so the lane also holds the pair
# against two Emits on every chain a node is wired with, and the derived
# counters against HostStats, the audit ring and the exposition with two
# hosts on one registry, telemetry detached and re-attached mid-stream, and
# a scraper reading throughout. The same lane reruns the two tests that pin
# the cold path's bookkeeping: the manager's one-record-per-user table
# against the model of the table it replaced, and the one clock reading per
# entry into a node. And the check round's rule — every manager counts once,
# C grants allow, M-C+1 denials deny, an undecided round widens in place —
# as a table over (M, C) and as a seeded property under reordering, drops
# and duplicates.
go test -race -count=5 -run 'TestNoCacheHitAfterFlushReturns|TestViewPublicationUnderLoad|TestCacheHitCountersDerived|TestCacheHitPairMatchesTwoEmits|TestHostCacheGrantersConcurrentChecks|TestManagerTableAgainstModel|TestOneClockReadingPerEntry|TestCheckRoundRule|TestCheckRoundProperty|TestDuplicatedDenialCountsOnce' ./internal/core

echo "== metrics endpoint smoke"
# Boots a live two-manager/one-host deployment over TCP, drives a check,
# scrapes /metrics on host and manager, and fails on malformed exposition,
# missing metric families, or missing build-info/process-start identity
# (the scrape is validated by telemetry.ParseText inside the test).
go test -race -run TestMetricsEndpointSmoke -count=1 ./cmd/acnode

echo "== SLO engine (race, repeated)"
# The burn-rate math every alert rests on: windowed SLI accounting,
# multi-window fire/clear edges, budget consumption, counter-reset
# rebaselining, prune bounds, and the exposition of alert states; plus
# the histogram-merge property test (merged quantiles must equal the
# quantiles of the concatenated observations, exactly).
go test -race -count=2 ./internal/slo ./internal/fleet

echo "== concurrent scrape (race, repeated)"
# /metrics and /health hammered from multiple goroutines while the node
# serves live checks; every exposition must parse strictly mid-load.
go test -race -count=2 -run TestConcurrentScrapeRace ./cmd/acnode

echo "== acmon e2e smoke"
# Live nodes + the fleet aggregator end to end: a revocation propagates,
# acmon scrapes all nodes, its re-exported exposition parses strictly,
# /health is green, and the revocation-propagation rollup matches the
# per-node histograms bucket for bucket (exactness, not estimation).
go test -race -run 'TestAcmonEndToEnd|TestHealthEndpoint' -count=1 ./cmd/acnode
# Stress lane for the one tier-1 test known to have raced (it asserted
# quiescence after only one of two managers had exported its observation):
# twenty runs, without the race detector so the interleaving is the
# tier-1 one.
go test -count=20 -run TestAcmonEndToEnd ./cmd/acnode

echo "== simulator inner loop (race, repeated)"
# Everything the goldens and oracles see comes out of the scheduler's
# firing order and the virtual clock: the seeded order property test
# (typed heap against a flat sorted reference, with stops, compaction,
# discards and nested scheduling) and the concurrent Set/Advance/Now
# monotonicity test for the lock-free clock. The matrix send alloc budget
# (0 objects/op) runs in the plain `go test ./...` tier-1 pass.
go test -race -count=3 -run 'TestSchedulerOrderProperty' ./internal/simnet
go test -race -count=3 -run 'TestVirtualConcurrentMonotone' ./internal/vclock

echo "== scenario SLO regressions (race)"
# The catalog doubles as an SLO suite: overload-100x must fire the
# revocation-lag burn alert inside the flood (before adaptive Te
# exhausts its headroom) and clear it after; steady-baseline must burn
# no budget at all.
go test -race -count=1 -run 'TestOverload100xRevocationLagBurnAlert|TestSteadyBaselineBurnsNoBudget' ./internal/scenario

echo "== scenario suite (race, repeated)"
# Three fast catalog scenarios (steady-baseline, oneway-blackout,
# revoke-under-partition) re-run end to end under the race detector with
# all five oracles attached; the test fails on any oracle violation, so a
# regression in revocation safety or failover shows up here, not in prod.
go test -race -count=2 -run TestCIFastScenarios ./internal/scenario

echo "== overload protection (race, repeated)"
# The overload stack guards revocation liveness under check floods: token
# buckets (edge cases incl. refill, burst clamp, keyed eviction), manager
# shedding with Busy/Retry-After, host backoff (spoof rejection, jitter,
# clamp, no-attempt-consumed deferral), adaptive-Te widen/decay, outbound
# lane accounting exactness, and the finite-capacity manager model.
go test -race -count=2 ./internal/ratelimit
go test -race -count=2 -run 'Overload|Busy|RateLimit|Lane|Capacity|AdaptiveTe|Shed' \
	./internal/core ./internal/simnet ./internal/netcore

echo "== overload experiment (race, repeated)"
# The 100×-flood proof: protected (lanes + admission + adaptive Te) keeps
# revocation submit→converged p99 within the promised bound while the
# unprotected FIFO baseline leaks, with telemetry asserted exactly; plus
# the overload-100x catalog scenario end to end with all five oracles.
go test -race -count=2 -run 'TestOverloadProtectionBoundsRevocationLag' ./internal/scenario
go test -race -count=1 -run 'TestFullCatalogRuns/overload-100x' ./internal/scenario

echo "== bench module (vet + self-check)"
# bench/ is a nested module (wanac/bench, replace wanac => ../), so the
# ./... patterns above never see it: build, vet and self-check it here, or
# an internal API change that breaks it surfaces only at the next
# benchmark run.
(cd bench && go vet ./... && go test ./...)

echo "== benchmark smoke (one iteration each)"
# One iteration per benchmark: catches benchmarks that fatal or hang without
# paying full measurement time. Real numbers come from scripts/bench.sh.
go test -run '^$' -bench=. -benchtime=1x ./... > /dev/null

echo "CI gate passed."
