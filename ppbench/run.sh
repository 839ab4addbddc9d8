#!/usr/bin/env bash
# Builds the released `pinpoint` binary and the benchmark from source,
# then runs one benchmark workload:
#
#   bash ppbench/run.sh --workload check_ref --seed 7 --seconds 25 --trace 0
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default: `target` for the analyzer, `ppbench/target` for the bench).
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f Cargo.toml ] || { echo "ppbench: no analyzer sources beside ppbench/" >&2; exit 2; }
cargo build --release --offline -q --bin pinpoint >&2
cargo build --release --offline -q --manifest-path ppbench/Cargo.toml >&2
pinpoint="${CARGO_TARGET_DIR:-target}/release/pinpoint"
bench="${CARGO_TARGET_DIR:-ppbench/target}/release/ppbench"
# Not `exec`: the bench reads its children's peak memory, which must count
# analyzer processes only, not the builds above.
"$bench" --pinpoint "$pinpoint" "$@"
