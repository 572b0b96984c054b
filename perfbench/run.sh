#!/usr/bin/env bash
# Builds the benchmark and micached from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 22 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout: the Go build cache, the binaries,
# scratch cache directories and the result and span files.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"

# Keep the toolchain's caches and its config and telemetry files inside
# the checkout, and never fetch anything.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

# micached is built from the repository's own module; the benchmark is
# its own module, which reaches the repository's packages through a
# replace directive. Both fail outside a full checkout.
(cd "$root" && go build -o "$build/bin/micached" ./cmd/micached) >&2
(cd "$bench_dir" && go build -o "$build/bin/perfbench" .) >&2

PERFBENCH_COMMIT=none
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
fi
PERFBENCH_SOURCE_HASH="$(cd "$root" && find . -name '*.go' -not -path './perfbench/*' \
	-not -path './.bench_build/*' -print0 | LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_COMMIT PERFBENCH_SOURCE_HASH

# Pin the benchmark, and the micached it starts, to one CPU. A request
# then wakes the other process on the CPU it already runs on, instead of
# waking an idle virtual CPU, whose wake-up latency follows the load of
# the machine under it.
pin=()
if command -v taskset >/dev/null 2>&1; then
	pin=(taskset -c "$(($(nproc) - 1))")
fi

cd "$root"
exec "${pin[@]}" "$build/bin/perfbench" -micached "$build/bin/micached" -out "$build" "$@"
