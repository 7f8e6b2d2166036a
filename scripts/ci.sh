#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, the whole suite once under the race detector,
# then only what that pass cannot show. A lane below differs from it in a flag
# that matters: -count > 1 on tests whose interleaving or timing varies run to
# run, another module, or -bench. The long sweep stays behind `-tags soak`.
#
# Usage: scripts/ci.sh [extra go-test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

# lane FLAGS PATTERN PKG... runs go test FLAGS -run PATTERN PKG... after
# checking with go test -list that each |-separated name in PATTERN is a
# test in PKG...: a renamed or deleted test would otherwise leave its lane
# running nothing, and passing.
lane() {
	local flags=$1 pattern=$2 listed name
	shift 2
	listed=$(go test -list "^($pattern)\$" "$@")
	for name in ${pattern//|/ }; do
		grep -qx "$name" <<<"$listed" || { echo "lane pattern names no test: $name in $*"; exit 1; }
	done
	go test $flags -run "$pattern" "$@"
}

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
test -z "$(gofmt -l . bench)" || { gofmt -l . bench; exit 1; }

echo "== core counters are derived"
# A node's exported counters read its own counts (internal/core/telemetry.go);
# a counter bumped beside a count is a second copy that can drift from it.
mirrors=$(grep -n '\.Inc()' internal/core/*.go | grep -v _test.go || true)
[ -z "$mirrors" ] || { echo "counter bumped beside a count:"; echo "$mirrors"; exit 1; }

echo "== core formats no trace text"
# A protocol event carries typed detail (trace.Event's Word, Peer and Num);
# trace.Note renders it where text is read. A note built when the event is
# emitted ("delay=" + d.String(), op + " from " + origin) allocates every
# time the event is emitted.
notes=$(grep -nE '"[ a-z-]*[a-z]=" *\+|" from " *\+' internal/core/*.go | grep -v _test.go || true)
[ -z "$notes" ] || { echo "trace note formatted in internal/core:"; echo "$notes"; exit 1; }

echo "== netcore encodes frames in one place"
# Peer.EnqueueMessage sizes each message once and appendFrame writes every
# outbound frame. A transport that sizes a message itself, or a netcore
# encoder outside appendFrame, is a second copy of the frame layout or of
# the drop rule, free to drift from the first.
sized=$(grep -n 'wire\.Size(' internal/tcpnet/*.go internal/udpnet/*.go | grep -v _test.go || true)
[ -z "$sized" ] || { echo "message sized outside netcore:"; echo "$sized"; exit 1; }
encoders=$(awk '/^func appendFrame\(/ { inside = 1 }
	!inside && /wire\.Append(Marshal|Batch)\(/ { print FILENAME ":" FNR ": " $0 }
	/^}/ { inside = 0 }' $(ls internal/netcore/*.go | grep -v _test.go))
[ -z "$encoders" ] || { echo "frame encoded outside appendFrame:"; echo "$encoders"; exit 1; }

echo "== only a Response's user id is lent"
# wire.Decoder decodes a Response's User as a view of the frame (decoder.lent
# in binary.go), valid until the handler returns; the host only compares it
# with its round's own key. Every other field is a copy, so nothing a node
# keeps aliases a frame. unsafe elsewhere in internal/wire, unsafe used
# outside decoder.lent, or a second lent field would hand a handler a view it
# has not agreed to give back.
wiresrc=$(ls internal/wire/*.go | grep -v _test.go)
unsafes=$(grep -n '"unsafe"' $wiresrc | grep -v '^internal/wire/binary.go:' || true)
[ -z "$unsafes" ] || { echo "unsafe imported in internal/wire outside binary.go:"; echo "$unsafes"; exit 1; }
views=$(awk '/^func \(d \*decoder\) lent\(/ { inside = 1 }
	!inside && /unsafe\./ { print FILENAME ":" FNR ": " $0 }
	/^}/ { inside = 0 }' $wiresrc)
[ -z "$views" ] || { echo "unsafe used outside decoder.lent:"; echo "$views"; exit 1; }
lent=$(awk '/^\tcase tag[A-Za-z]+:/ { c = $2 }
	/d\.lent\(\)/ { n++; if (c != "tagResponse:") print FILENAME ":" FNR ": " $0 }
	END { if (n != 1) print "decoder.lent called " n + 0 " times, want once" }' $wiresrc)
[ -z "$lent" ] || { echo "a field other than a Response's User is lent:"; echo "$lent"; exit 1; }

echo "== lent messages are not kept"
# One lending contract carries every message a node builds in place: the
# simulator lends each node what it is sent (simnet's LentHandler) and each
# node lends the simulator what it sends (core.LentSender), and both sides
# reuse the message once the call returns. The compiler's escape analysis
# must find that the message each of the lent dispatches and the lent send
# below is handed does not escape: "leaking param content" passes, since the
# strings it refers to are immutable and copying them keeps nothing of the
# message; "leaking param", the pointer itself kept, fails. Every kind rides
# the same methods, so a new lent kind needs no entry here. A journal lends
# its sink the one record it unpacks each decision into, so the oracle's sink
# and the audit stream's writer are held to the same contract.
lentdirs="internal/core internal/sim internal/flight internal/harness"
escapes=$(go build -gcflags=-m $(sed 's|internal/|./internal/|g' <<<"$lentdirs") 2>&1)
for fn in 'Host) HandleLent' 'Manager) HandleLent' 'Env) SendLent' 'auditSink) Accept' 'Writer) Accept'; do
	decl=$(for d in $lentdirs; do grep -nE "^func \([a-z]+ \*?$fn\(" $d/*.go; done | grep -v _test.go || true)
	[ "$(wc -l <<<"$decl")" = 1 ] && [ -n "$decl" ] || { echo "want one declaration of $fn in $lentdirs"; exit 1; }
	at=$(cut -d: -f1,2 <<<"$decl")
	param=$(sed -E 's/.*[(,] ?([a-z]+) (wire\.Message|\*(flight\.)?Record)\) \{.*$/\1/' <<<"$decl")
	grep -qE "^$at:[0-9]+: ($param does not escape|leaking param content: $param)\$" <<<"$escapes" ||
		{ echo "$fn: its lent $param escapes:"; grep -E "^$at:" <<<"$escapes"; exit 1; }
done

echo "== one exposition writer"
# Registry.Gather builds a telemetry.Metrics and (*Metrics).Write is the only
# code that prints # HELP and # TYPE lines, for a node's /metrics and acmon's
# rollup alike. The check SLOs are built once, by slo.CheckSpecs: a scenario
# or the fleet naming one of the families those read is a second definition.
gosrc=$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print)
writers=$(awk '/^func \(m \*Metrics\) Write\(/ { inside = 1 }
	!inside && /["`]# (HELP|TYPE) / { print FILENAME ":" FNR ": " $0 }
	/^}/ { inside = 0 }' $gosrc)
[ -z "$writers" ] || { echo "exposition header written outside (*Metrics).Write:"; echo "$writers"; exit 1; }
checkfams=$(grep -nE 'wanac_(host_checks_total|host_check_latency_seconds|host_query_timeouts_total|manager_queries_total)' \
	$(ls internal/scenario/*.go internal/fleet/*.go | grep -v _test.go) || true)
[ -z "$checkfams" ] || { echo "check SLO family named outside slo.CheckSpecs:"; echo "$checkfams"; exit 1; }

echo "== stale command references"
# Every ./cmd/<name> that Go source or the tree's documentation names must be
# a command that exists, so a deleted command's "render with: go run
# ./cmd/..." hint cannot outlive it. bench/ is its own module; CHANGES.md and
# ROADMAP.md record history and plans, and PAPERS.md and SNIPPETS.md quote
# other repositories, so only the documents below are scanned.
stale=0
for ref in $( { grep -rhoE --include='*.go' --exclude-dir=bench '\./cmd/[A-Za-z0-9_-]+' .
	grep -hoE '\./cmd/[A-Za-z0-9_-]+' README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; } | sort -u); do
	[ -d "$ref" ] || { echo "stale command reference: $ref"; stale=1; }
done
[ "$stale" = 0 ]

echo "== stale flag references"
# Likewise every dotted flag (-debug.addr, -audit.jsonl, -harness.seed) the
# documents name must be defined by a flag.*("name.name", ...) call in the Go
# tree outside bench/, so a deleted flag cannot outlive it in a recipe.
defined=$(grep -rhoE --include='*.go' --exclude-dir=bench 'flag\.[A-Za-z0-9]+\([^"]*"[a-z]+\.[a-z-]+"' . |
	grep -oE '"[a-z]+\.[a-z-]+"$' | tr -d '"' | sort -u)
for ref in $(grep -hoE '(^|[ `(])-[a-z]+\.[a-z-]+' README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md |
	sed -E 's/^[ `(]?-//' | sort -u); do
	grep -qxF "$ref" <<<"$defined" || { echo "stale flag reference: -$ref"; stale=1; }
done
[ "$stale" = 0 ]

echo "== stale endpoint references"
# Likewise every /debug/<name> endpoint the documents or Go help text outside
# tests name must be registered on acnode's debug mux, so a replaced endpoint
# (/debug/flight and /debug/audit became /debug/journal) cannot outlive it.
served=$(grep -oE 'mux\.Handle(Func)?\("/debug/[a-z]+' cmd/acnode/main.go | grep -oE '/debug/[a-z]+' | sort -u)
for ref in $( { grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=bench '/debug/[a-z]+' .
	grep -hoE '/debug/[a-z]+' README.md DESIGN.md .claude/skills/verify/SKILL.md; } | sort -u); do
	grep -qxF "$ref" <<<"$served" || { echo "stale endpoint reference: $ref"; stale=1; }
done
[ "$stale" = 0 ]

echo "== full suite (race)"
go test -race "$@" ./...

echo "== live transports (race, repeated)"
# Real sockets, writer goroutines, listener kill/restart churn: a single pass
# can miss a timing-dependent race.
go test -race -count=2 ./internal/netcore ./internal/tcpnet ./internal/udpnet

echo "== cache-hit path and lock-free paths (race, repeated)"
# Callers hammer a warm key off Host.mu while entries are flushed, the host
# is reset and re-granted through the table handles its apps hold, views are
# republished and a scraper reads; a hit's one event and one record through
# each deployment's observer chain; real timeouts racing the grants that
# finish their checks, whose structs and timers the next checks reuse, and
# real retransmission timers racing the acks that finish a manager's update
# and notice records, which the next revocation reuses;
# ACL_cache and the manager's store against their map models; journal and
# trace records of every kind read back exactly while writers race the
# readers, also when peers name more than the journal's name table holds,
# and through the one slot a journal with no window builds them in;
# the virtual clock under Set/Advance/Now.
lane '-race -count=5' 'TestNoCacheHitAfterFlushReturns|TestResetKeepsTableHandles|TestViewPublicationUnderLoad|TestCacheHitCountersDerived|TestHostCacheGrantersConcurrentChecks|TestCacheHitObservationContract|TestStaleTimerFiringRealTimers|TestStaleRecordFiringRealTimers' ./internal/core
lane '-race -count=5' 'TestCacheAgainstModel|TestStoreAgainstModel|TestCacheSixtyFifthGranterEmptiesApp' ./internal/acl
lane '-race -count=5' 'TestAuditRecordRoundTripConcurrent|TestFlightRecordRoundTripConcurrent|TestZeroWindowJournal|TestJournalNamesBounded|TestCollectorRoundTripConcurrent' ./internal/audit ./internal/flight ./internal/trace
lane '-race -count=3' TestVirtualConcurrentMonotone ./internal/vclock

echo "== scrape under load (race, repeated)"
# /metrics and /health hammered from several goroutines while a live node
# serves checks; every exposition must parse strictly mid-load.
lane '-race -count=2' TestConcurrentScrapeRace ./cmd/acnode

echo "== acnode e2e (repeated, no race detector)"
# The tier-1 tests known to have raced, twenty runs each at the tier-1
# interleaving: acmon asserting quiescence after one of two managers had
# exported, and the journal read before a manager that did not decide the
# round had recorded its answer.
lane -count=20 'TestAcmonEndToEnd|TestDebugAuditEndpoint' ./cmd/acnode

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
