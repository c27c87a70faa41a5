#!/usr/bin/env bash
# Paired benchmark runs of two checkouts for one workload: steps 2-4 of
# "Measurement procedure" in benchmark/README.md.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=1]
#
# Builds each checkout's benchmark into that checkout's own target/, then
# runs PAIRS pairs of `bench --workload W --seed N --seconds S --trace 0`,
# each from the root of its checkout: the parent goes first in odd pairs,
# the change in even ones. Before each pair it waits (up to two minutes) for
# the 1-minute load average to drop below nproc.
#
# Prints every run's end-to-end metrics, then per metric both sides'
# medians and quartiles, the pairs the change won (ties count for neither)
# and the verdict of step 4: "gain" when the change wins at least 9 in 10
# of the pairs and its median is better than the parent's by more than the
# parent's inter-quartile range, "loss" for the same the other way, "-"
# otherwise. Which way is better comes from CHANGE_DIR/BENCHMARK.json.
#
# Exits 1 when any run is not "correct":true with "failed":0, 2 on a usage
# or build error.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 6 ]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-20}"
seed="${6:-1}"

for dir in "$parent" "$change"; do
    cargo build --release --offline --quiet \
        --manifest-path "$dir/benchmark/Cargo.toml" --target-dir "$dir/target" || exit 2
done

# The end-to-end metrics and their directions, one "name better" a line.
directions="$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); name = $0 }
    on && /"better"/ { sub(/.*"better": *"/, ""); sub(/".*/, ""); print name, $0 }
' "$change/BENCHMARK.json")"

wait_for_quiet() {
    local cores load tries=0
    cores="$(nproc)"
    while load="$(cut -d ' ' -f 1 /proc/loadavg)" \
        && awk -v l="$load" -v c="$cores" 'BEGIN { exit !(l >= c) }' \
        && [ "$tries" -lt 24 ]; do
        sleep 5
        tries=$((tries + 1))
    done
}

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT
broken=0
run() { # side dir pair
    local line
    line="$(cd "$2" && ./target/release/bench --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    if ! grep -qF '"correct":true' <<< "$line" || ! grep -qF '"failed":0,' <<< "$line"; then
        echo "pairs: pair $3, $1: not correct, or an operation failed:" >&2
        echo "$line" >&2
        broken=1
    fi
    echo "$3 $1 $line" >> "$runs"
    # One line per run: the pair, the side, then every metric of the line.
    awk '{
        out = sprintf("pair %2d %-6s", $1, $2)
        rest = $0
        while (match(rest, /"[a-z_]+":\{"value":[-+0-9.eE]+/)) {
            kv = substr(rest, RSTART + 1, RLENGTH - 1)
            rest = substr(rest, RSTART + RLENGTH)
            sub(/":\{"value":/, "=", kv)
            out = out " " kv
        }
        print out
    }' <<< "$3 $1 $line"
}

echo "$workload, seed $seed, $pairs pairs of $seconds s: $parent (parent) vs $change (change)"
for pair in $(seq 1 "$pairs"); do
    wait_for_quiet
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done

echo
awk -v directions="$directions" -v pairs="$pairs" '
    # The q-quantile of v[1..n] sorted, interpolating between neighbours.
    function quantile(v, n, q,    at, lo, hi) {
        at = q * (n - 1)
        lo = int(at)
        hi = (at > lo) ? lo + 1 : lo
        return v[lo + 1] + (v[hi + 1] - v[lo + 1]) * (at - lo)
    }
    function sort(v, n,    i, j, x) {
        for (i = 2; i <= n; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    BEGIN {
        count = split(directions, d, "\n")
        for (i = 1; i <= count; i++) {
            split(d[i], f, " ")
            metrics[i] = f[1]
            better[f[1]] = f[2]
        }
        need = int((9 * pairs + 9) / 10)
        printf "%-16s %14s %14s %14s %14s %8s %5s  %s\n", "metric", "parent median",
            "parent IQR", "change median", "change IQR", "change", "wins", "verdict"
    }
    {
        rest = $0
        while (match(rest, /"[a-z_]+":\{"value":[-+0-9.eE]+/)) {
            kv = substr(rest, RSTART + 1, RLENGTH - 1)
            rest = substr(rest, RSTART + RLENGTH)
            split(kv, f, /":\{"value":/)
            value[$2, f[1], $1] = f[2] + 0
            seen[$2, f[1], $1] = 1
        }
    }
    END {
        for (i = 1; i <= count; i++) {
            m = metrics[i]
            np = nc = wins = losses = 0
            for (p = 1; p <= pairs; p++) {
                if ((("parent", m, p) in seen)) vp[++np] = value["parent", m, p]
                if ((("change", m, p) in seen)) vc[++nc] = value["change", m, p]
                if (!((("parent", m, p) in seen) && (("change", m, p) in seen))) continue
                gap = value["change", m, p] - value["parent", m, p]
                if (better[m] == "lower") gap = -gap
                if (gap > 0) wins++
                if (gap < 0) losses++
            }
            if (np == 0 || nc == 0) continue
            sort(vp, np)
            sort(vc, nc)
            p1 = quantile(vp, np, 0.25); pm = quantile(vp, np, 0.5); p3 = quantile(vp, np, 0.75)
            c1 = quantile(vc, nc, 0.25); cm = quantile(vc, nc, 0.5); c3 = quantile(vc, nc, 0.75)
            gap = cm - pm
            if (better[m] == "lower") gap = -gap
            verdict = "-"
            if (wins >= need && gap > p3 - p1) verdict = "gain"
            if (losses >= need && -gap > p3 - p1) verdict = "loss"
            rel = (pm != 0) ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
            printf "%-16s %14.6g %14.6g %14.6g %14.6g %8s %2d/%-2d  %s\n", m, pm, p3 - p1, cm,
                c3 - c1, rel, wins, pairs, verdict
        }
    }
' "$runs"
exit "$broken"
