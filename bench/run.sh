#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it; every argument
# passes through (see main.go for the flags). Run from the repository root:
#
#	bash bench/run.sh --workload fleet-warehouse --seed 1 --seconds 10 --trace 0
#
# All build output, caches and temporary files stay under .bench_build/ in
# the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$here/../go.mod" ]; then
	echo "bench: the repro module is missing beside $here; nothing to build" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point it into the build directory too.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/ttbench" .)
exec "$out/ttbench" --scratch "$out" "$@"
