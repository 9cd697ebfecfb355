#!/usr/bin/env bash
# Builds the benchmark and the `dprle` binary from source, then runs one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
