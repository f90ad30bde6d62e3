#!/usr/bin/env bash
# Build the benchmark, run its self-tests, then run every workload in
# the quick mode (2 passes each, same verification as a full run).
# Exits non-zero when anything fails to build, a test fails or a
# workload reports an incorrect result.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
  run --workload all --seed 1 --quick
