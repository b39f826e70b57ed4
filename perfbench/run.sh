#!/usr/bin/env bash
# Builds the placer (`mep`) and the benchmark harness from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload place_ispd06 --seed 1 --seconds 30 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build); generated
# inputs, outputs, spans and run records go under it too.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin mep
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --mep "$CARGO_TARGET_DIR/release/mep" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
