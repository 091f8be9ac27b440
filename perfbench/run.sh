#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload smallbank-neuchain --seed 7 --seconds 35 --trace 0
# Every file the build and the run write stays under .bench_build/ in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off CGO_ENABLED=0
# The binary records the VCS revision when the checkout is a repository; if
# the VCS status cannot be read, build again without it.
(cd "$root/perfbench" && { go build -o "$out/perfbench" . ||
	go build -buildvcs=false -o "$out/perfbench" .; }) >&2
cd "$root"
exec "$out/perfbench" "$@"
