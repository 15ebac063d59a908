#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. See README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
#   benchmark/run.sh [--seed N] [--smoke] [--check]                  every workload, every metric
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Share the repository's target/ unless the caller chose a build directory,
# so the first run does not compile the workspace a second time.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# Temporary files (rustc's, and the shm transport's segment files) stay
# inside the checkout.
export TMPDIR="$here/out/tmp"
mkdir -p "$TMPDIR"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/mpfa-benchmark" "$@"
