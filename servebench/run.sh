#!/usr/bin/env bash
# Builds xtt-serve and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#   bash servebench/run.sh --workload term_batch --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p xtt-serve --bin xtt-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/xtt-serve" "$@"
