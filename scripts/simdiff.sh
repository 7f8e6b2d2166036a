#!/usr/bin/env bash
# Checks that a change leaves the simulation as it was: builds cmd/acsim at
# <rev> (from a `git archive` export) and from the working tree, then diffs
# the output and exit status of `acsim check -seeds 200` and of
# `acsim run <name> -seed N` for every catalog scenario and seeds 2001-2012.
# Prints each command whose output differs and exits 1 if any does.
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
# Failing runs write flight artifacts; keep them out of the system temp dir.
export WANAC_ARTIFACTS="$tmp/artifacts"

runs=0 diffs=0
compare() {
	"$tmp/old" "$@" >"$tmp/a" 2>&1 && echo "exit 0" >>"$tmp/a" || echo "exit $?" >>"$tmp/a"
	"$tmp/new" "$@" >"$tmp/b" 2>&1 && echo "exit 0" >>"$tmp/b" || echo "exit $?" >>"$tmp/b"
	runs=$((runs + 1))
	cmp -s "$tmp/a" "$tmp/b" || { echo "differs: acsim $*"; diffs=$((diffs + 1)); }
}

compare check -seeds 200
for name in $("$tmp/new" list | awk 'NR > 2 && NF && !/^ /'); do
	for seed in $(seq 2001 2012); do
		compare run "$name" -seed "$seed"
	done
done
echo "simdiff $rev: $diffs of $runs transcripts differ"
[ "$diffs" = 0 ]
