#!/usr/bin/env bash
# Builds perfbench from source and runs it. Everything the build and the
# run write stays under .bench_build/ in the directory this is called from
# (the root of a checkout): the Go build cache, the binary, and the
# repositories of the systems under test.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/home"

HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" GOCACHE="$out/gocache" \
	GOTOOLCHAIN=local \
	go build -C "$src" -o "$out/perfbench" .

exec "$out/perfbench" -tmp "$out" "$@"
