#!/usr/bin/env bash
# The benchmark's one command: builds the release binary, then hands it
# every argument.
#
#   benchmark/run.sh                      all four workloads, a fresh process each
#   benchmark/run.sh --trace              the separate traced run (per-layer metrics)
#   benchmark/run.sh --repeat             the set twice, then `compare` the two
#   benchmark/run.sh --smoke              counts / 10, one workload, < 30 s
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A B
#
# Results land in benchmark/out/. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The pool's caller helps, so one worker means two runnable threads: all
# this 2-core box has. More workers made infer/serve wall 8-13 % noisier.
export HONGTU_THREADS=1
export HONGTU_BENCH_DIR="$here"
HONGTU_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
HONGTU_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export HONGTU_BENCH_RUSTC HONGTU_BENCH_COMMIT

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
