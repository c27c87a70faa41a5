#!/usr/bin/env bash
# Tier-1 verification gate: build, test, and document the workspace with no
# network access and warnings denied. This is the command CI and ROADMAP.md
# mean by "tier-1 verify" — it must pass on a machine with an empty registry
# cache, which is what keeps the zero-external-crates policy honest.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"
export RUSTDOCFLAGS="-D warnings"

# No dead dependency edges: every workspace crate a manifest names is
# named by that package's sources (see the script).
scripts/deps.sh

cargo build --release --offline --workspace
# The benchmark is its own package path-depending on crates/*: building it
# here makes a public-surface cut that breaks it fail now instead of in the
# next benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

# Exact-count gate: every row of scripts/exact_counts.txt is one 2-second
# run of the benchmark binary whose last stdout line must be correct, have
# no failed operation, and read exactly the metric values of its row. The
# table says why the numbers are exact and when a change updates them.
exact_counts() { # workload seed trace [metric value]...
    local workload="$1" seed="$2" trace="$3" last want
    shift 3
    local wants=('"correct":true' '"failed":0')
    while [ "$#" -gt 0 ]; do
        wants+=("\"$1\":{\"value\":$2,")
        shift 2
    done
    last="$(./target/release/bench --workload "$workload" --seed "$seed" --seconds 2 \
        --trace "$trace" | tail -n 1)"
    for want in "${wants[@]}"; do
        if ! grep -qF -- "$want" <<< "$last"; then
            echo "verify: FAILED (exact counts): $workload seed $seed trace $trace wants $want in:" >&2
            echo "$last" >&2
            exit 1
        fi
    done
}
while read -r -a row <&3; do
    [ "${#row[@]}" -eq 0 ] || [ "${row[0]:0:1}" = "#" ] || exact_counts "${row[@]}"
done 3< scripts/exact_counts.txt

cargo test -q --offline --workspace
# The gmm block kernels' loops vectorise only under optimisation, so their
# bit-identity tests run once more in release, as do the coordinator's
# simplex and its oracle, and the remote site's tests (its decisions
# against the scalar reference, and its pinned checkpoint bytes).
cargo test --release -q --offline -p cludistream-gmm
cargo test --release -q --offline -p cludistream --lib coordinator::simplex
cargo test --release -q --offline -p cludistream --lib remote
cargo doc --no-deps -q --offline --workspace

# Telemetry smoke test: the default `simulate` workload must produce an event
# journal byte-identical to the committed golden fixture (journal entries are
# stamped with deterministic sim-time, never wall-clock).
journal="$(mktemp /tmp/cludistream_verify_XXXXXX.jsonl)"
trap 'rm -f "$journal"' EXIT
./target/release/cludistream simulate --journal "$journal" >/dev/null
diff -u crates/cli/tests/fixtures/metrics_journal.jsonl "$journal"

# Fault smoke test: the default `simulate --faults` workload — random loss,
# duplication, reordering, and one site crash/restart — must replay
# byte-identically against its committed journal fixture (fault decisions
# come from a dedicated seeded RNG stream).
./target/release/cludistream simulate --faults --journal "$journal" >/dev/null
diff -u crates/cli/tests/fixtures/faults_journal.jsonl "$journal"

# Trace smoke test: the traced faults workload must export a Perfetto
# (Chrome trace-event) JSON byte-identical to the committed golden fixture
# (span ids allocated in simulator dispatch order, sim-time stamps, virtual
# compute costs — no wall clock anywhere).
trace="$(mktemp /tmp/cludistream_verify_XXXXXX.json)"
trap 'rm -f "$journal" "$trace"' EXIT
./target/release/cludistream simulate --faults --trace-out "$trace" >/dev/null
diff -u crates/cli/tests/fixtures/trace_faults.json "$trace"

# Socket smoke test: a real multi-process round — one coordinator and two
# site processes on 127.0.0.1 ephemeral ports — must reach the same
# merge/split decisions and emit the same per-site protocol events as the
# simulator running the identical workload (`simulate --reliable`). Only
# the "t" timestamps differ: sim-time on one side, wall-clock on the
# other, so both are stripped before the diff. Mid-round, the `status`
# subcommand must scrape a parseable Prometheus exposition with the
# fleet's metric families present.
smokedir="$(mktemp -d /tmp/cludistream_socket_XXXXXX)"
trap 'rm -f "$journal" "$trace"; rm -rf "$smokedir"' EXIT
./target/release/cludistream coordinator --sites 2 --deadline-s 120 \
    --port-file "$smokedir/port.txt" --snapshot-out "$smokedir/snap.bin" \
    > "$smokedir/coord.out" &
coord_pid=$!
for _ in $(seq 1 150); do
    [ -s "$smokedir/port.txt" ] && break
    kill -0 "$coord_pid" 2>/dev/null || { echo "coordinator died early" >&2; exit 1; }
    sleep 0.1
done
addr="$(cat "$smokedir/port.txt")"
./target/release/cludistream site --connect "$addr" --site 0 \
    --journal "$smokedir/tcp_site0.jsonl" > "$smokedir/tcp_site0.out" &
# Mid-round status scrape: with site 1 not yet launched the round cannot
# end, so the scrape deterministically observes a live fleet. Site 0's
# telemetry rides its heartbeat cadence (500 ms), hence the poll.
scraped=0
for _ in $(seq 1 150); do
    if ./target/release/cludistream status --connect "$addr" \
            > "$smokedir/status.txt" 2>/dev/null \
        && grep -q '^cludistream_up 1$' "$smokedir/status.txt" \
        && grep -q 'cludistream_net_messages_total{site="0"}' "$smokedir/status.txt" \
        && grep -q 'cludistream_round_state{site="1"} 0' "$smokedir/status.txt"; then
        scraped=1
        break
    fi
    sleep 0.1
done
if [ "$scraped" -ne 1 ]; then
    echo "status scrape never showed the required metric families:" >&2
    cat "$smokedir/status.txt" >&2 || true
    exit 1
fi
# Every line of the exposition must parse: a `# TYPE` comment or a
# `name{labels} value` sample.
expo_re='^(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|summary)|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf))$'
bad="$(grep -vE "$expo_re" "$smokedir/status.txt" || true)"
if [ -n "$bad" ]; then
    echo "status exposition has unparseable lines:" >&2
    echo "$bad" >&2
    exit 1
fi
# Pre-`Hello` frame cap: a connection that never says `Hello` and declares
# a 1 MiB frame is cut on its length prefix (end of stream or a reset, not
# a 10 s timeout), and the round below goes on with its diffs unchanged.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf '\x00\x00\x10\x00' >&3
head -c 65536 /dev/zero >&3 2>/dev/null || true
cut=0
timeout 10 cat <&3 >/dev/null 2>&1 || cut=$?
exec 3<&-
if [ "$cut" -eq 124 ]; then
    echo "a connection that never said Hello kept a 1 MiB frame open" >&2
    exit 1
fi
./target/release/cludistream site --connect "$addr" --site 1 \
    --journal "$smokedir/tcp_site1.jsonl" > "$smokedir/tcp_site1.out" &
wait
./target/release/cludistream simulate --reliable --journal "$smokedir/sim.jsonl" \
    > "$smokedir/sim.out"
grep '^coordinator groups:' "$smokedir/coord.out" > "$smokedir/coord_groups"
grep '^coordinator groups:' "$smokedir/sim.out" > "$smokedir/sim_groups"
diff -u "$smokedir/sim_groups" "$smokedir/coord_groups"
# Exact counts: a frame written to a live connection is never written to
# it again, so with no connection lost nothing is re-sent and nothing
# arrives twice — by construction, on any host, however loaded.
grep -q 'dup/stale discarded: 0$' "$smokedir/coord.out"
for i in 0 1; do
    grep -q 'retransmitted: 0 msgs 0 bytes | resyncs: 0$' "$smokedir/tcp_site$i.out"
    grep -E '"event":"(ChunkTested|Reclustered|SynopsisSent)"' "$smokedir/sim.jsonl" \
        | grep "\"site\":$i" | sed 's/"t":[0-9]*/"t":_/' > "$smokedir/sim_site$i"
    grep -E '"event":"(ChunkTested|Reclustered|SynopsisSent)"' "$smokedir/tcp_site$i.jsonl" \
        | sed 's/"t":[0-9]*/"t":_/' > "$smokedir/tcp_site$i"
    diff -u "$smokedir/sim_site$i" "$smokedir/tcp_site$i"
done

# Scoring smoke test: the socket round's end-of-round checkpoint (written
# by `coordinator --snapshot-out` in the serving wire layout) must be
# consumable by `score` — batched Definition-1 assignment over a
# generated CSV, one assignment line per record plus the summary.
[ -s "$smokedir/snap.bin" ] || { echo "coordinator wrote no snapshot" >&2; exit 1; }
./target/release/cludistream generate --records 64 --dim 1 --k 2 --seed 5 \
    > "$smokedir/score_data.csv"
./target/release/cludistream score "$smokedir/score_data.csv" \
    --model "$smokedir/snap.bin" --dim 1 > "$smokedir/score.out"
grep -q '^snapshot: version ' "$smokedir/score.out"
grep -q '^records: 64$' "$smokedir/score.out"
[ "$(grep -cE '^  [0-9]+: component [0-9]+ \(log p ' "$smokedir/score.out")" -eq 64 ]
grep -q '^avg log likelihood: ' "$smokedir/score.out"

# Health smoke test: the quality plane's alerting endpoint end to end.
# Phase A — a coordinator with --alerts and no sites: the round-stalled
# rule must fire and `health` must exit non-zero (the probe contract).
# Phase B — a --quality site joins and finishes the round: health must
# recover to exit 0, and the status exposition must carry the
# quality-plane series and the mirrored alert verdicts.
./target/release/cludistream coordinator --sites 1 --deadline-s 120 \
    --alerts --quality --linger-ms 20000 --port-file "$smokedir/hport.txt" \
    > "$smokedir/hcoord.out" &
hcoord_pid=$!
for _ in $(seq 1 150); do
    [ -s "$smokedir/hport.txt" ] && break
    kill -0 "$hcoord_pid" 2>/dev/null || { echo "health coordinator died early" >&2; exit 1; }
    sleep 0.1
done
haddr="$(cat "$smokedir/hport.txt")"
if ./target/release/cludistream health --connect "$haddr" > "$smokedir/health_a.out"; then
    echo "health must exit non-zero while round-stalled fires:" >&2
    cat "$smokedir/health_a.out" >&2
    exit 1
fi
grep -q '^FIRING round-stalled' "$smokedir/health_a.out"
./target/release/cludistream site --connect "$haddr" --site 0 --quality >/dev/null &
hsite_pid=$!
healthy=0
for _ in $(seq 1 300); do
    if ./target/release/cludistream health --connect "$haddr" \
            > "$smokedir/health_b.out" 2>/dev/null; then
        healthy=1
        break
    fi
    sleep 0.1
done
if [ "$healthy" -ne 1 ]; then
    echo "health never recovered to exit 0:" >&2
    cat "$smokedir/health_b.out" >&2 || true
    exit 1
fi
grep -q 'round-stalled' "$smokedir/health_b.out"
grep -q 'alerts firing' "$smokedir/health_b.out"
hscraped=0
for _ in $(seq 1 300); do
    if ./target/release/cludistream status --connect "$haddr" \
            > "$smokedir/hstatus.txt" 2>/dev/null \
        && grep -q 'cludistream_quality_avg_ll{site="0"}' "$smokedir/hstatus.txt" \
        && grep -q '^cludistream_alert_round_stalled 0$' "$smokedir/hstatus.txt"; then
        hscraped=1
        break
    fi
    sleep 0.1
done
if [ "$hscraped" -ne 1 ]; then
    echo "status never showed the quality-plane series + alert gauges:" >&2
    cat "$smokedir/hstatus.txt" >&2 || true
    exit 1
fi
wait "$hsite_pid" "$hcoord_pid"

# Swarm smoke test (hierarchical aggregation). Phase A — the swarm
# bench at its two smallest scales: the same synthetic synopses and
# follow-up updates of 1000 and of 10000 sites pushed through a flat star
# root and through a 100-aggregator tree. The binary self-gates that
# bytes arriving at the root shrink, the tree root's event table stays
# O(models) instead of O(sites), the held-out average log-likelihood
# matches the star's, and the star root's apply time grows with the site
# count, not with its square.
./target/release/swarm --scales 1000,10000 > "$smokedir/swarm.out"
grep -q 'gate sharding: .* ok$' "$smokedir/swarm.out"
grep -q 'gate linearity: .* ok$' "$smokedir/swarm.out"

# Phase B — a real 4-process loopback tree: a root coordinator serving
# one child (the aggregator), the aggregator serving two site
# processes. The sites run the identical workload as the star socket
# smoke above, so their journals must replay the same protocol events
# (sites cannot tell an aggregator from a coordinator), and the root
# must reach the same merge/split decisions as the simulator.
./target/release/cludistream coordinator --sites 1 --deadline-s 120 \
    --port-file "$smokedir/rport.txt" > "$smokedir/rcoord.out" &
rcoord_pid=$!
for _ in $(seq 1 150); do
    [ -s "$smokedir/rport.txt" ] && break
    kill -0 "$rcoord_pid" 2>/dev/null || { echo "tree root died early" >&2; exit 1; }
    sleep 0.1
done
raddr="$(cat "$smokedir/rport.txt")"
./target/release/cludistream aggregator --connect "$raddr" --site 0 \
    --child-base 0 --children 2 --deadline-s 120 \
    --port-file "$smokedir/aport.txt" > "$smokedir/agg.out" &
ragg_pid=$!
for _ in $(seq 1 150); do
    [ -s "$smokedir/aport.txt" ] && break
    kill -0 "$ragg_pid" 2>/dev/null || { echo "aggregator died early" >&2; exit 1; }
    sleep 0.1
done
aaddr="$(cat "$smokedir/aport.txt")"
./target/release/cludistream site --connect "$aaddr" --site 0 \
    --journal "$smokedir/agg_site0.jsonl" > "$smokedir/agg_site0.out" &
./target/release/cludistream site --connect "$aaddr" --site 1 \
    --journal "$smokedir/agg_site1.jsonl" > "$smokedir/agg_site1.out" &
wait
# The root behind the fan-in reaches the simulator's groups; one
# aggregator hop adds no churn (no resyncs, no evictions, >= 1 reduced
# update forwarded).
grep '^coordinator groups:' "$smokedir/rcoord.out" > "$smokedir/tree_groups"
diff -u "$smokedir/sim_groups" "$smokedir/tree_groups"
grep -q '^aggregator groups: 2$' "$smokedir/agg.out"
grep -qE '^flushes up: [1-9]' "$smokedir/agg.out"
grep -q 'resyncs: up 0 down 0 | evicted sites: \[\]' "$smokedir/agg.out"
# Exact counts, on both hops (see the star smoke above).
grep -q 'retransmitted: 0 msgs 0 bytes$' "$smokedir/agg.out"
grep -q 'dup/stale discarded: 0 | decode errors: 0$' "$smokedir/agg.out"
grep -q 'dup/stale discarded: 0$' "$smokedir/rcoord.out"
for i in 0 1; do
    grep -q 'retransmitted: 0 msgs 0 bytes | resyncs: 0$' "$smokedir/agg_site$i.out"
    grep -E '"event":"(ChunkTested|Reclustered|SynopsisSent)"' "$smokedir/agg_site$i.jsonl" \
        | sed 's/"t":[0-9]*/"t":_/' > "$smokedir/agg_site$i"
    diff -u "$smokedir/sim_site$i" "$smokedir/agg_site$i"
done

# Panic-free public API gate: non-test code in the core crate must not
# use `unwrap()` or `panic!` — public entry points return
# Result<_, CludiError>. Everything that parses or computes on bytes a peer sent
# — the coordinator (means, covariances, counts arrive in messages) and
# the simplex in it that runs on them, the socket runtime, the
# protocol and snapshot codecs, the engines, the telemetry codec, the
# fleet aggregator, the registry it folds into and the catalogue decoding
# looks names up in (crates/obs), and in crates/gmm the synopsis codec and
# the Gaussian whose merge criteria and their bounds the coordinator runs
# on peer-sent synopses — must not `expect` either: there an `expect` on a
# value is a remote panic. The same holds for crates/wire (the reader
# every decoder reads through) and the site checkpoint decoders
# (remote/snapshot.rs, windows/sliding.rs). Orderings use `f64::total_cmp`, a group whose statistics yield no
# Gaussian keeps its previous aggregate and reports an error, and a
# poisoned lock is recovered. Test modules (everything below
# `#[cfg(test)]`) and comment lines are exempt.
non_test() { awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$1"; }
gate_failed=0
for f in $(find crates/core/src crates/wire/src -name '*.rs') \
        crates/obs/src/{telemetry,fleet,registry,catalogue}.rs crates/gmm/src/{codec,gaussian}.rs; do
    banned='\.unwrap\(\)|panic!\('
    case "$f" in
        crates/core/src/coordinator/* | crates/core/src/runtime/* | \
        crates/core/src/protocol.rs | crates/core/src/serving.rs | \
        crates/core/src/engine.rs | crates/core/src/aggregator.rs | \
        crates/core/src/remote/snapshot.rs | crates/core/src/windows/sliding.rs | \
        crates/obs/src/* | crates/wire/src/* | \
        crates/gmm/src/codec.rs | crates/gmm/src/gaussian.rs) banned="$banned|\.expect\(" ;;
    esac
    hits="$(non_test "$f" | grep -nE "$banned" || true)"
    if [ -n "$hits" ]; then
        echo "unwrap()/panic!, or expect( in coordinator/, runtime/, protocol.rs," \
            "serving.rs, engine.rs, aggregator.rs, remote/snapshot.rs, windows/sliding.rs," \
            "obs telemetry/fleet/registry/catalogue.rs, crates/wire or" \
            "gmm codec.rs/gaussian.rs — non-test code of $f:" >&2
        echo "$hits" >&2
        gate_failed=1
    fi
done
# No hand-counted length guards: a decoder reads through `ByteReader`'s
# fallible getters with `?`, and `need_items` is the one place a count read
# off the wire is multiplied, so no decoder asks `remaining()` itself.
for f in crates/gmm/src/codec.rs crates/obs/src/telemetry.rs crates/core/src/{protocol,serving,driver}.rs \
        crates/core/src/runtime/control.rs crates/core/src/remote/snapshot.rs \
        crates/core/src/windows/sliding.rs; do
    hits="$(non_test "$f" | grep -n 'remaining()' || true)"
    if [ -n "$hits" ]; then
        echo "a hand-counted remaining() guard in the non-test code of decoder $f:" >&2
        echo "$hits" >&2
        gate_failed=1
    fi
done
if [ "$gate_failed" -ne 0 ]; then
    echo "verify: FAILED (panic-free gate)" >&2
    exit 1
fi

# Non-test source lines per crate (informational; ROADMAP's size gates
# quote this table).
scripts/loc.sh

echo "verify: OK"
