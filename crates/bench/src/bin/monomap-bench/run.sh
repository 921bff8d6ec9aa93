#!/usr/bin/env bash
# Builds the real daemon and the benchmark into one target directory,
# then runs the benchmark with the arguments given. Run from the
# repository root:
#
#   crates/bench/src/bin/monomap-bench/run.sh --workload cold_4x4 --seed 1 --seconds 10 --trace 0
#   crates/bench/src/bin/monomap-bench/run.sh --out results.json        # all five, both modes
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Cargo's progress goes to stderr; stdout stays the benchmark's alone.
cargo build --release --offline --quiet --bin monomapd
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/monomap-bench" "$@"
