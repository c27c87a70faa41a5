#!/usr/bin/env bash
# Non-test source lines and public items per crate — the numbers ROADMAP's
# size and surface gates quote: for each crates/<c>/src/**/*.rs, the lines
# before the first `#[cfg(test)]`, and how many of them declare a `pub`
# item (`pub fn`, `pub struct`, `pub use`, …; not `pub(crate)`, not fields),
# then a `total` row over the crates listed. A file that declares itself
# test-only with an inner `#![cfg(test)]` counts nothing.
# Last, the settable values: the CLI flags, summed over the subcommands of
# `flag_table` in crates/cli/src/lib.rs; then the configuration fields, the
# `pub` fields of every non-test `pub struct` whose name ends in `Config`,
# plus `ChunkParams`, `MergeRefiner` and `TreeTopology`, over the crates
# listed; then the builder setters, every non-test `pub fn NAME(mut self`
# over the crates listed. Last, `pub unused outside N`: of the named
# non-test `pub fn`, `struct`, `enum`, `trait`, `type`, `const` and
# `static` items of the crates listed, how many no `.rs` file outside
# their own crate names as a word (the other crates, the root package's
# `src/`, `tests/` and `examples/`, and `benchmark/src/`). A word match
# undercounts: a name two crates share counts as used.
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
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' -exec awk \
        'FNR == 1 { skip = inside = 0 }
         /^#!?\[cfg\(test\)\]/ { skip = 1 } skip { next }
         inside && /^[[:space:]]*}/ { inside = 0 }
         inside && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { n++ }
         /^[[:space:]]*pub struct ([A-Za-z]*Config|ChunkParams|MergeRefiner|TreeTopology)[[:space:]]*\{/ { inside = 1 }
         END { print n + 0 }' {} +
done | awk '{ n += $1 } END { printf "config fields %d\n", n }'
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' -exec awk \
        'FNR == 1 { skip = 0 }
         /^#!?\[cfg\(test\)\]/ { skip = 1 } skip { next }
         /^[[:space:]]*pub fn [a-z_][a-z0-9_]*\(mut self/ { n++ }
         END { print n + 0 }' {} +
done | awk '{ n += $1 } END { printf "builder setters %d\n", n }'
tmp="$(mktemp -d "${TMPDIR:-/tmp}/loc_XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' -exec awk \
        'FNR == 1 { skip = 0 }
         /^#!?\[cfg\(test\)\]/ { skip = 1 } skip { next }
         match($0, /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
             n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/); print w[n]
         }' {} + | sort -u > "$tmp/names"
    find crates src tests examples benchmark/src -name '*.rs' -not -path "crates/$c/*" \
        -exec grep -ohE '[A-Za-z_][A-Za-z0-9_]*' {} + | sort -u > "$tmp/words"
    comm -23 "$tmp/names" "$tmp/words" | wc -l
done | awk '{ n += $1 } END { printf "pub unused outside %d\n", n }'
