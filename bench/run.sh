#!/usr/bin/env bash
# Builds cmd/crowdd and the benchmark from the checkout this script
# sits in, then runs the benchmark with the given flags. Everything the
# build and the run write stays under bench/.work.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$PWD/bench/.work
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE=$work/gocache GOTMPDIR=$work/tmp GOTOOLCHAIN=local GOWORK=off
go build -o "$work/bin/crowdd" ./cmd/crowdd
(cd bench && go build -o "$work/bin/crowdbench" .)
exec "$work/bin/crowdbench" "$@"
