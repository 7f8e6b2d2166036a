#!/usr/bin/env bash
# Checks that a change leaves the simulation as it was: builds cmd/acsim at
# <rev> (from a `git archive` export) and from the working tree, then diffs
# the output and exit status of `acsim check -seeds 200` and of
# `acsim run <name> -seed N -flight` for every catalog scenario and seeds
# 2001-2012. Each side writes its failure artifacts (flight dumps) to a
# directory of its own, at the same path so the transcripts can name it; any
# artifact that is missing on one side or differs byte for byte makes the run
# differ. Prints each command whose output differs and exits 1 if any does.
#
# Usage: scripts/simdiff.sh <rev>
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/simdiff.sh <rev>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/old" ./cmd/acsim)
go build -o "$tmp/new" ./cmd/acsim

runs=0 diffs=0 arts=0
# side <bin> <out> <artifacts> runs one side with its artifacts written to
# $tmp/artifacts and then moved to <artifacts>.
side() {
	local bin=$1 out=$2 art=$3
	shift 3
	rm -rf "$tmp/artifacts" "$art"
	WANAC_ARTIFACTS="$tmp/artifacts" "$bin" "$@" >"$out" 2>&1 && echo "exit 0" >>"$out" || echo "exit $?" >>"$out"
	mkdir -p "$tmp/artifacts"
	mv "$tmp/artifacts" "$art"
}
compare() {
	side "$tmp/old" "$tmp/a" "$tmp/a.art" "$@"
	side "$tmp/new" "$tmp/b" "$tmp/b.art" "$@"
	runs=$((runs + 1))
	local same=1 f
	cmp -s "$tmp/a" "$tmp/b" || same=0
	for f in $( (ls "$tmp/a.art"; ls "$tmp/b.art") | sort -u); do
		arts=$((arts + 1))
		cmp -s "$tmp/a.art/$f" "$tmp/b.art/$f" || same=0
	done
	[ "$same" = 1 ] || { echo "differs: acsim $*"; diffs=$((diffs + 1)); }
}

compare check -seeds 200
for name in $("$tmp/new" list | awk 'NR > 2 && NF && !/^ /'); do
	for seed in $(seq 2001 2012); do
		compare run "$name" -seed "$seed" -flight
	done
done
echo "simdiff $rev: $diffs of $runs transcripts differ ($arts artifacts compared)"
[ "$diffs" = 0 ]
