#!/usr/bin/env bash
# End-to-end benchmark of the `miniperf` commands and daemon.
#
#   bash perfbench/run.sh --workload roofline-cold --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --regen-expected
#
# Run from the repository root. Builds the release `miniperf` binary and
# the benchmark binary (into $CARGO_TARGET_DIR, default `target`), then
# hands every argument to it. See perfbench/README.md.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet -p miniperf --bin miniperf
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
exec "$target/release/perfbench" --bin "$target/release/miniperf" "$@"
