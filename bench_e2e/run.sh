#!/usr/bin/env bash
# Builds the server (`ocqa`, from the repository's workspace) and the
# harness (this package) from source, then runs the harness. Every
# argument is passed through; see README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ocqa-cli --bin ocqa
cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/bench_e2e" --ocqa-bin "$CARGO_TARGET_DIR/release/ocqa" "$@"
