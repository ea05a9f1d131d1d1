#!/usr/bin/env bash
# Builds the mpcbench program from the checkout's sources and runs it.
# Run from the repository root; every argument goes to mpcbench:
#
#   bash mpcbench/run.sh --workload serve-sync-n8 --seed 1 --seconds 10 --trace 0
#
# The build output, the Go build cache, the go command's temporary and
# config files, sockets and span files all stay under .bench_build in
# the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d mpc || ! -f mpcbench/go.mod ]]; then
	echo "mpcbench: run from the repository root (go.mod, mpc/ and mpcbench/ not found here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd mpcbench && go build -o "$out/mpcbench" .)
exec "$out/mpcbench" "$@"
