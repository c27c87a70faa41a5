#!/usr/bin/env bash
# Mutation check of the gmm crate's tests: copies the tree (without
# `target/` and `.git/`) to a temporary directory, applies one mutation at
# a time with `sed`, runs `cargo test --release -q --offline -p
# cludistream-gmm` there against one shared target directory, and prints
# a row per mutation:
#   caught    the tests failed (the failing tests are listed)
#   survived  every test passed
#   stale     the `sed` changed nothing: the code moved, update the row
#   broken    the mutant did not compile: fix its `sed`
# Exits 1 when any mutation survived, is stale or is broken. The working
# tree is never written. Takes minutes (one release build of gmm's tests
# per mutation), so scripts/verify.sh does not run it.
# usage: scripts/mutants.sh [NAME ...]   (default: every mutation)
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d "${TMPDIR:-/tmp}/cludistream_mutants_XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar --exclude=./target --exclude=./.git --exclude=./benchmark/target -cf - . \
    | tar -xf - -C "$work/tree"
export CARGO_TARGET_DIR="$work/target"
# A mutant may leave a variable unused; that is not what is being tested.
unset RUSTFLAGS

names=() files=() scripts=()
mutant() { # name file sed-script
    names+=("$1") files+=("$2") scripts+=("$3")
}

g=crates/gmm/src
# Column log-sum-exp (batch.rs).
mutant lse-finite-guard-dropped $g/batch.rs 's/^        if o\.is_finite() {$/        if true {/'
mutant lse-components-reversed $g/batch.rs '/sum\.fill(0\.0);/,/^    for (o, &s)/ {
    s/for row in table\.chunks_exact(count) {/for row in table.chunks_exact(count).rev() {/
    s/for row in table\.chunks_exact_mut(count) {/for row in table.chunks_exact_mut(count).rev() {/
}'
mutant lse-gate-always-0 $g/batch.rs 's/\*g = if \*g - m < cut { 0\.0 } else { 1\.0 };/*g = 0.0;/'
mutant lse-tiny-30 $g/batch.rs 's/^const TINY: f64 = -37\.5;/const TINY: f64 = -30.0;/'
mutant lse-tiny-36 $g/batch.rs 's/^const TINY: f64 = -37\.5;/const TINY: f64 = -36.0;/'
mutant lse-nan-is-tiny $g/batch.rs 's/} else if !(d < TINY && \*s >= g) {/} else if !(!(d >= TINY) \&\& *s >= g) {/'
mutant lse-cut-without-ln $g/batch.rs 's/let cut = TINY - .*;/let cut = TINY;/'
# The terms the log-sum-exp keeps for the E-step: one below 1e-9 (far
# above the skipped ones' e^-37.5) left out of the table but not the sum.
mutant lse-kept-small-term-zeroed $g/batch.rs 's/^                \*t = e;$/                *t = if e < 1e-9 { 0.0 } else { e };/'
# k-means (kmeans.rs).
mutant kmeans-argmin-le $g/kmeans.rs 's/u64::from(t < \*best)/u64::from(t <= *best)/'
mutant kmeans-reseed-gt $g/kmeans.rs 's/if t >= dist\[far\] {/if t > dist[far] {/'
mutant kmeans-centroid-div $g/kmeans.rs 's/\*m = sum \* inv;/*m = sum \/ count as f64;/'
# Moment sums (suffstats.rs) and EM (em.rs).
mutant moments-wx-perturbed $g/suffstats.rs 's/\*wx = w \* x;/*wx = w * x * (1.0 + f64::EPSILON);/'
mutant moments-tile-reversed $g/suffstats.rs 's/for b in 0\.\.count {/for b in (0..count).rev() {/'
mutant em-part-gathered-reversed $g/em.rs \
    's/let at = starts\[p\] \* d + filled\[p\];/let at = starts[p] * d + sizes[p] - 1 - filled[p];/'
mutant em-one-running-accumulator $g/em.rs '/fn accumulate(&mut self)/,/^    }$/ {
    s/self\.partial\.fill(0\.0);/if b == 0 { self.stats.fill(0.0); }/
    s/(&mut self\.partial, &mut self\.moments)/(\&mut self.stats, \&mut self.moments)/
    s/if b == 0 {$/if false {/
}'
mutant em-finite-guard-dropped $g/em.rs \
    's/let r = if norm\.is_finite() { e \/ s } else { uniform };/let r = e \/ s;/'
# The E-step's responsibilities e / s: the term without its sum, and a sum
# without the last component's term.
mutant em-weight-without-sum $g/em.rs \
    's/let r = if norm\.is_finite() { e \/ s } else { uniform };/let r = if norm.is_finite() { e } else { uniform };/'
mutant em-sum-missing-last-component $g/em.rs '/fn accumulate_block(/,/^}$/ {
    s/for (((w, &e), &s), &norm) in weights\.iter_mut()\.zip(e)\.zip(sums)\.zip(norms) {/let last = \&terms[terms.len() - count..];\
        for ((((w, \&e), \&s), \&norm), \&l) in weights.iter_mut().zip(e).zip(sums).zip(norms).zip(last) {/
    s/let r = if norm\.is_finite() { e \/ s } else { uniform };/let r = if norm.is_finite() { e \/ (s - l) } else { uniform };/
}'
# Column densities (gaussian.rs).
mutant scratch-density-portable $g/gaussian.rs \
    's/wide!(self\.params\.log_pdf_cols(cols, out, solve));/self.params.log_pdf_cols(cols, out, solve);/'
mutant dense-sum-descending $g/gaussian.rs \
    's/for y in solve\.chunks_exact(count) {/for y in solve.chunks_exact(count).rev() {/'

bad=0
for i in "${!names[@]}"; do
    name="${names[$i]}" file="${files[$i]}"
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qxF -- "$name"; then
        continue
    fi
    sed -e "${scripts[$i]}" "$file" > "$work/tree/$file"
    if cmp -s "$file" "$work/tree/$file"; then
        verdict=stale
    elif out="$(cd "$work/tree" && cargo test --release -q --offline -p cludistream-gmm 2>&1)"; then
        verdict=survived
    elif grep -q '^error\(\[E[0-9]*\]\)\?:' <<< "$out" && ! grep -q '^test result: FAILED' <<< "$out"; then
        verdict=broken
    else
        failed="$(awk '/^failures:$/ { f++ } f == 2 && /^    [[:alnum:]_:]+$/ { print $1 }' <<< "$out")"
        verdict="caught ($(wc -l <<< "$failed")): $(tr '\n' ' ' <<< "$failed")"
    fi
    cp "$file" "$work/tree/$file"
    printf '%-28s %s\n' "$name" "$verdict"
    case "$verdict" in caught*) ;; *) bad=1 ;; esac
done
exit "$bad"
