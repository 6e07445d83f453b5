#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
# Usage: tools/check.sh  (from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# default-members makes both commands cover the whole workspace.
echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> source lint (diag catalogue, unsafe discipline, tag + exec-mode + footprint + cone-plan + cone-scan chokepoints, no deprecation shims)"
# src/bin/lint.rs: every DiagCode has exactly one DESIGN.md catalogue row
# and a mutation test; unsafe only in crates/parallel (SAFETY-documented);
# GpuLane::tag only from the engine's emission layer; the execution mode
# read only by exec.rs's per-GPU dispatcher; no deprecated items; a step's
# device footprint computed only in crates/core/src/footprint.rs; packed
# cone plans built only by the packer in crates/core/src/serve.rs, and
# full dedup/buffer plans in the runtime crates only by session plan
# construction and certification (engine.rs, commit.rs) and Alg. 4 (reorg.rs) — a
# structural commit patches them; a delta cone grown by the chunk scan
# (cone::upward_scan, ConeOrigin::regrow) only in crates/verify and tests.
cargo run -q --release --bin lint

echo "==> verify schedule smoke run (static certification, passes 6-7)"
cargo run -q --release --bin verify -- schedule --dataset rdt --gpus 2 --layers 2 --measure
cargo run -q --release --bin verify -- schedule --dataset rdt --gpus 4 --chunks 8 --overlap doublebuffer --measure
cargo run -q --release --bin verify -- schedule --dataset rdt --gpus 2 --layers 2 --comm vanilla --memory recompute --mode infer

echo "==> verify dataflow smoke run (conservation certification, pass 9)"
cargo run -q --release --bin verify -- dataflow --dataset rdt --gpus 2 --layers 2
cargo run -q --release --bin verify -- dataflow --dataset rdt --gpus 4 --chunks 8 --overlap doublebuffer --memory recompute
cargo run -q --release --bin verify -- dataflow --dataset rdt --gpus 2 --comm vanilla --mode infer

echo "==> verify trace smoke run (happens-before schedule certification)"
cargo run -q --release --bin verify -- trace --dataset rdt --gpus 4 --chunks 8 --determinism

echo "==> verify trace smoke run, parallel executor (certified against the sequential reference)"
cargo run -q --release --bin verify -- trace --dataset rdt --gpus 4 --chunks 8 --determinism --exec parallel

echo "==> verify trace smoke run, double-buffered overlap (both execution modes)"
cargo run -q --release --bin verify -- trace --dataset rdt --gpus 4 --chunks 8 --determinism --overlap doublebuffer
cargo run -q --release --bin verify -- trace --dataset rdt --gpus 4 --chunks 8 --determinism --overlap doublebuffer --exec parallel

echo "==> verify trace smoke run, forward-only inference (both execution modes)"
cargo run -q --release --bin verify -- trace --dataset rdt --gpus 4 --chunks 8 --determinism --mode infer --overlap doublebuffer
cargo run -q --release --bin verify -- trace --dataset rdt --gpus 4 --chunks 8 --determinism --mode infer --overlap doublebuffer --exec parallel

echo "==> infer CLI smoke run (forward-only serving path)"
cargo run -q --release -p hongtu-bench --bin infer -- --dataset rdt --gpus 4 --chunks 4 --overlap doublebuffer --quiet
cargo run -q --release -p hongtu-bench --bin infer -- --dataset rdt --gpus 4 --chunks 4 --exec parallel --quiet

echo "==> paper tables and figures reproduce results/ byte for byte"
cargo run -q --release -p hongtu-bench --bin paper -- all && git diff --exit-code results/

echo "==> parallel executor certification, release profile"
cargo test -q --release --test parallel_executor

echo "==> overlap executor certification, release profile"
cargo test -q --release --test overlap_executor

echo "==> inference executor certification, release profile"
cargo test -q --release --test inference_executor

echo "==> layer backward certification, release profile (skipped ∇h^0 and ReLU mask from the output = full wrappers, bitwise)"
cargo test -q --release -p hongtu-nn

echo "==> serving layer certification, release profile"
cargo test -q --release -p hongtu-serving
cargo test -q --release --test serving_executor

echo "==> delta subsystem certification, release profile (incremental = rebuild, transactional refusals, plan certificates: narrowed check = verify_all)"
cargo test -q --release -p hongtu-delta
cargo test -q --release --test delta_executor
cargo test -q --release --test delta_transactional
cargo test -q --release -p hongtu-verify --test bad_plans
cargo test -q --release -p hongtu-verify --test certified_plans
cargo test -q --release -p hongtu-core --lib narrowed_checks_equal_verify_all

echo "==> hot-vertex cache certification, release profile"
cargo test -q --release -p hongtu-cache
cargo test -q --release -p hongtu-verify --test bad_cache
cargo test -q --release --test cache_executor

echo "==> benchmark/ builds against the crates and its smoke run passes"
# benchmark/ is a workspace of its own, outside `cargo test --workspace`:
# without this a crates API change can break the perf gate unnoticed.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> all checks passed"
