#!/usr/bin/env bash
# Builds the benchmark (release, offline, zero external crates) and runs it
# from the root of the checkout. See benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--out FILE]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/bench" "$@"
