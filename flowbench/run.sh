#!/usr/bin/env bash
# Builds `sdlc-cli` and the benchmark from source, then runs one benchmark
# pass. Run from the repository root:
#
#   bash flowbench/run.sh --workload synth --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --quiet --release --offline --manifest-path Cargo.toml --bin sdlc-cli >&2
cargo build --quiet --release --offline --manifest-path flowbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/flowbench" --cli "$CARGO_TARGET_DIR/release/sdlc-cli" "$@"
