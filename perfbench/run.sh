#!/usr/bin/env bash
# Builds the bgp-served release daemon and the benchmark runner from
# source, then runs one workload:
#   bash perfbench/run.sh --workload replay|query|live --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p bgp-serve --bin bgp-served >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/bgp-served" "$@"
