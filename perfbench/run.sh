#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload skewed --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL and
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# The checkout need not be a git repository; fall back to a digest of the
# Go sources so every result still names the code it measured.
if [ -d .git ]; then
	source_id=$(git rev-parse HEAD)
else
	source_id=src-$(find . -name '*.go' -not -path './.bench_build/*' -print0 |
		LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)
fi

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out/work" --source "$source_id" "$@"
