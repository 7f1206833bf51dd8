#!/usr/bin/env bash
# Builds the benchmark driver from this checkout and runs it, passing every
# argument through, e.g.
#
#   bash perfbench/run.sh --workload route --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare base.jsonl new.jsonl
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary and the span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS=-buildvcs=false go build -o "$out/perfbench.$$" .
)
# Renamed into place, so a run already executing the old binary is unaffected.
mv -f "$out/perfbench.$$" "$out/perfbench"

cd "$root"
exec env ARMADA_BENCH_COMMIT="$commit" "$out/perfbench" "$@"
