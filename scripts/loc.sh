#!/usr/bin/env bash
# Non-test source lines per crate — the number ROADMAP's size gates quote:
# for each crates/<c>/src/**/*.rs, the lines before the first `#[cfg(test)]`.
# usage: scripts/loc.sh [crate ...]   (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- $(ls crates)
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' -exec awk -v c="$c" \
        'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ }
         END { printf "%-10s %6d\n", c, n }' {} +
done
