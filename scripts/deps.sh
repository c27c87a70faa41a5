#!/usr/bin/env bash
# Dependency gate: every workspace crate a workspace manifest names must be
# named by that package's own sources — a `[dependencies]` entry by `src/`,
# a `[dev-dependencies]` entry by `src/`, `tests/`, `examples/` or
# `benches/`. A crate counts as named where a Rust path uses it (`name::`,
# `use name;`, `use name as …`); comment lines do not count. Exits 1 and
# lists every dead edge. Run from verify.sh; standalone:
#   scripts/deps.sh
set -euo pipefail
cd "$(dirname "$0")/.."

failed=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    section=""
    while IFS= read -r line; do
        case "$line" in
            '['*) section="$line"; continue ;;
        esac
        case "$section" in
            '[dependencies]') wanted=(src) ;;
            '[dev-dependencies]') wanted=(src tests examples benches) ;;
            *) continue ;;
        esac
        name="$(sed -nE 's/^(cludistream[a-z-]*)[ .=].*/\1/p' <<< "$line")"
        [ -n "$name" ] || continue
        ident="${name//-/_}"
        dirs=()
        for d in "${wanted[@]}"; do
            [ -d "$dir/$d" ] && dirs+=("$dir/$d")
        done
        uses=0
        if [ "${#dirs[@]}" -gt 0 ]; then
            uses="$(grep -rhE --include='*.rs' \
                "(^|[^A-Za-z0-9_])$ident(::|;|[[:space:]]+as[[:space:]])" "${dirs[@]}" \
                | grep -cvE '^[[:space:]]*//' || true)"
        fi
        if [ "$uses" -eq 0 ]; then
            echo "deps: $manifest $section names $name, but no source of its package does" >&2
            failed=1
        fi
    done < "$manifest"
done
if [ "$failed" -ne 0 ]; then
    echo "deps: FAILED (dead dependency edge)" >&2
    exit 1
fi
