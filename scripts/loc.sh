#!/usr/bin/env bash
# Non-test source lines and public items per crate — the numbers ROADMAP's
# size and surface gates quote: for each crates/<c>/src/**/*.rs, the lines
# before the first `#[cfg(test)]`, and how many of them declare a `pub`
# item (`pub fn`, `pub struct`, `pub use`, …; not `pub(crate)`, not fields).
# Last, the settable values: the CLI flags, summed over the subcommands of
# `flag_table` in crates/cli/src/lib.rs.
# usage: scripts/loc.sh [crate ...]   (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- $(ls crates)
printf '%-10s %6s %5s\n' crate lines pub
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' -exec awk -v c="$c" \
        'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ }
         !skip && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { p++ }
         END { printf "%-10s %6d %5d\n", c, n, p }' {} +
done
printf 'cli flags %d\n' "$(awk '/^fn flag_table/, /^}/' crates/cli/src/lib.rs | grep -o '"--[a-z-]*"' | wc -l)"
