#!/usr/bin/env bash
# Tier-1 gate: offline release build, the full test suite, clippy with
# warnings as errors, rustdoc with warnings as errors, and the benchmark
# package's smoke run. No network access is required — the workspace has
# no external dependencies. Every other check is a `cargo test` test
# (README, "Tests and benches").
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== test (release) =="
cargo test --release --offline -q

if cargo clippy --version >/dev/null 2>&1; then
  echo "== clippy (-D warnings) =="
  cargo clippy -q --release --offline --workspace --all-targets -- -D warnings
else
  echo "== clippy not installed; skipping =="
fi

echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== benchmark smoke =="
# The benchmark package builds against these crates from its own
# manifest; a change that breaks one of its call sites must fail here.
benchmark/smoke.sh

echo "tier-1 OK"
