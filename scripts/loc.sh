#!/usr/bin/env bash
# Non-test source lines and public items per crate — the numbers ROADMAP's
# size and surface gates quote: for each crates/<c>/src/**/*.rs, the lines
# before the first `#[cfg(test)]`, and how many of them declare a `pub`
# item (`pub fn`, `pub struct`, `pub use`, …; not `pub(crate)`, not fields),
# then a `total` row over the crates listed. A file that declares itself
# test-only with an inner `#![cfg(test)]` counts nothing.
# Last, the settable values: the CLI flags, summed over the subcommands of
# `flag_table` in crates/cli/src/lib.rs.
# usage: scripts/loc.sh [crate ...]   (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- $(ls crates)
printf '%-10s %6s %5s\n' crate lines pub
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' -exec awk -v c="$c" \
        'FNR == 1 { n += f; p += q; f = q = skip = 0 }
         /^#!\[cfg\(test\)\]/ { f = q = 0; skip = 1 }
         /^#\[cfg\(test\)\]/ { skip = 1 } !skip { f++ }
         !skip && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { q++ }
         END { printf "%-10s %6d %5d\n", c, n + f, p + q }' {} +
done | awk '{ print; n += $2; p += $3 } END { printf "%-10s %6d %5d\n", "total", n, p }'
printf 'cli flags %d\n' "$(awk '/^fn flag_table/, /^}/' crates/cli/src/lib.rs | grep -o '"--[a-z-]*"' | wc -l)"
