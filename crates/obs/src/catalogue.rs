//! The metric catalogue: every counter, gauge, histogram and span name the
//! stack records, declared once with its kind, unit, emitting layer and
//! one-sentence meaning. Each entry is also a typed handle ([`Counter`],
//! [`Gauge`], [`Histogram`], [`SpanName`]), the only key [`crate::Recorder`]
//! and [`crate::SpanRecord`] take, and only this crate can make one:
//!
//! ```compile_fail
//! let made_up = cludistream_obs::Counter("made.up");
//! ```
//!
//! Beyond these entries a node records only [`crate::FleetAggregator`]'s
//! `site<N>.` copies of them and its `alert.<rule>` gauges.
//! `docs/METRICS.md` is [`render_markdown`]'s output, regenerated by
//! `cargo run -p cludistream-obs --example metrics_md > docs/METRICS.md`.

/// One declared name: its registry key, kind (`counter`, `gauge`,
/// `histogram` or `span`: its handle type's `KIND`), unit of one
/// increment, value or observation, emitting layer, and the question it
/// answers.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    pub name: &'static str,
    pub kind: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    pub help: &'static str,
}

macro_rules! handles {
    ($($ty:ident $kind:literal $doc:literal;)*) => {$(
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub struct $ty(pub(crate) &'static str);
        impl $ty {
            /// What entries of this handle type are recorded as.
            pub const KIND: &'static str = $kind;
            /// The declared name, as registries key it.
            pub const fn as_str(self) -> &'static str {
                self.0
            }
        }
    )*};
}

handles! {
    Counter "counter" "A declared counter: the only key [`crate::Recorder::counter`] takes.";
    Gauge "gauge" "A declared gauge: the only key [`crate::Recorder::gauge`] takes.";
    Histogram "histogram" "A declared histogram: the only key [`crate::Recorder::observe`] takes.";
    SpanName "span" "A declared span name: the only name a [`crate::SpanRecord`] carries.";
}

macro_rules! catalogue {
    ($($handle:ident: $ty:ident($name:literal, $unit:literal, $layer:literal) $help:literal;)*) => {
        $(#[doc = $help] pub const $handle: $ty = $ty($name);)*
        /// Every declared entry, sorted by name.
        pub static CATALOGUE: &[Entry] = &[$(Entry {
            name: $name, kind: $ty::KIND, unit: $unit, layer: $layer, help: $help,
        },)*];
    };
}

catalogue! {
    AGG_FLUSHES: Counter("agg.flushes", "updates", "aggregator")
        "Reduced updates this aggregator sent to its parent.";
    AGG_FLUSHES_SUPPRESSED: Counter("agg.flushes_suppressed", "flushes", "aggregator")
        "Flushes skipped because the reduced update's encoding was the last upload's, byte for byte.";
    COORD_APPLY: SpanName("coord.apply", "span", "coordinator")
        "The coordinator applying one released message, child of the frame's wire span.";
    COORD_EVENT_TABLE_ENTRIES: Gauge("coord.event_table_entries", "rows", "coordinator")
        "Model-registry plus merge-log rows the coordinator holds after its last apply.";
    COORD_EVICT: Counter("coord.evict", "children", "runtime")
        "Children evicted for staying silent past the timeout.";
    COORD_GROUPS: Gauge("coord.groups", "groups", "coordinator")
        "Groups (global mixture components) after the last apply.";
    COORD_JOIN: Counter("coord.join", "handshakes", "runtime")
        "Child handshakes accepted, first joins and rejoins alike.";
    COORD_MERGES: Counter("coord.merges", "merges", "coordinator")
        "Pairs of groups merged (Sec. 5.2.1).";
    COORD_MERGES_COMPACTED: Counter("coord.merges_compacted", "records", "coordinator")
        "Merge-log records dropped by the merge-log cap.";
    COORD_MESSAGES: Counter("coord.messages", "messages", "coordinator")
        "Site messages the coordinator applied.";
    COORD_PAIRS_SCORED: Counter("coord.pairs_scored", "pairs", "coordinator")
        "M_merge evaluations consolidation made, skipping pairs a certified bound shows cannot be merged next; never created by a coordinator that never merged.";
    COORD_RESYNC: Counter("coord.resync", "handshakes", "runtime")
        "Handshakes that resumed a dropped connection from the inbox's cumulative ACK.";
    COORD_ROUND_STARTED: Gauge("coord.round_started", "0/1", "runtime")
        "Whether every child has rendezvoused and the round started.";
    COORD_SIMPLEX: SpanName("coord.simplex", "span", "coordinator")
        "A merge's simplex refinement, with evaluations x SIMPLEX_EVAL_COST_US as virtual cost.";
    COORD_SPLITS: Counter("coord.splits", "members", "coordinator")
        "Members split out of their group because M_split passed 1/M_remerge, each then re-merged.";
    COORD_STRAY_FRAMES: Counter("coord.stray_frames", "frames", "runtime")
        "Ping, ClockEcho, Telemetry or Done frames dropped for arriving on a connection other than the named site's live handshaken one.";
    COORD_TELEMETRY_DECODE_ERR: Counter("coord.telemetry_decode_err", "frames", "runtime")
        "Telemetry payloads from a child that failed to decode.";
    EM_ACCUMULATE_NS: Histogram("em.accumulate_ns", "ns", "gmm")
        "Time one EM fit spent in its accumulate passes (responsibilities and moment sums), summed over its iterations.";
    EM_ESTEP_BLOCKS: Counter("em.estep_blocks", "blocks", "gmm")
        "256-record blocks the E-steps scored, over every fit.";
    EM_INIT_NS: Histogram("em.init_ns", "ns", "gmm")
        "Time one EM fit spent before its first iteration: the chunk's variance, k-means++ and Lloyd, the initial mixture.";
    EM_ITER_CAPPED: Counter("em.iter_capped", "fits", "gmm")
        "EM fits that stopped at the iteration cap instead of converging.";
    EM_ITERS_PER_FIT: Histogram("em.iters_per_fit", "iterations", "gmm")
        "Iterations of each EM fit; its count is the number of fits, its sum every iteration run.";
    EM_MSTEP_NS: Histogram("em.mstep_ns", "ns", "gmm")
        "Time one EM fit spent re-estimating its mixture from the moment sums, rescues included, summed over its iterations.";
    EM_SCORE_NS: Histogram("em.score_ns", "ns", "gmm")
        "Time one EM fit spent in its score passes (weighted log densities and log-sum-exp), summed over its iterations.";
    HB_RTT_US: Histogram("hb.rtt_us", "us", "runtime")
        "Heartbeat round trip a node measured from its Ping to the parent's Pong.";
    NET_BYTES: Counter("net.bytes", "bytes", "transport")
        "Encoded bytes of the data-plane frames put on the wire, length prefix excluded (communication cost, Sec. 5.3).";
    NET_CRASHES: Counter("net.crashes", "nodes", "transport")
        "Simulated node crashes.";
    NET_CTRL_BYTES: Counter("net.ctrl_bytes", "bytes", "transport")
        "Encoded bytes of the control frames a socket node sent.";
    NET_CTRL_MESSAGES: Counter("net.ctrl_messages", "frames", "transport")
        "Control frames (handshake, heartbeat, scrape replies) a socket node sent.";
    NET_DROPPED: Counter("net.dropped", "frames", "transport")
        "Frames the simulated network discarded (loss, partition, crashed endpoint).";
    NET_DUPLICATED: Counter("net.duplicated", "frames", "transport")
        "Extra copies of frames the simulated network delivered.";
    NET_MESSAGES: Counter("net.messages", "frames", "transport")
        "Data-plane frames put on the wire, ACKs and retransmissions included.";
    NET_REORDERED: Counter("net.reordered", "frames", "transport")
        "Frames the simulated network delayed out of order.";
    NET_RESTARTS: Counter("net.restarts", "nodes", "transport")
        "Simulated nodes back up after a crash.";
    NET_RETRANSMITS: Counter("net.retransmits", "frames", "transport")
        "Sequenced frames go-back-N re-sent after a retransmission timeout.";
    OBS_UNKNOWN_SERIES: Counter("obs.unknown_series", "names", "obs")
        "Telemetry names a peer sent that are undeclared, of another kind than their section or parent-only; skipped.";
    PROTOCOL_INBOX_OVERFLOW: Counter("protocol.inbox_overflow", "frames", "protocol")
        "Sequenced frames an inbox discarded for arriving INBOX_SPAN or more past its cumulative ACK; go-back-N resends them. Never created while none overflowed.";
    QUALITY_AVG_LL: Gauge("quality.avg_ll", "nats", "site")
        "Average log likelihood of the last tested chunk under the model that decided it.";
    QUALITY_CHURN_EWMA: Gauge("quality.churn_ewma", "events", "coordinator")
        "EWMA of merges plus splits per applied message.";
    QUALITY_EWMA_DRIFT: Counter("quality.ewma_drift", "alarms", "site")
        "EWMA-chart alarms on the average-log-likelihood series.";
    QUALITY_EWMA_STAT: Gauge("quality.ewma_stat", "ratio", "site")
        "EWMA chart statistic; 1 or more is out of control.";
    QUALITY_PH_DRIFT: Counter("quality.ph_drift", "alarms", "site")
        "Page-Hinkley alarms on the average-log-likelihood series.";
    QUALITY_PH_STAT: Gauge("quality.ph_stat", "nats", "site")
        "Page-Hinkley drop excursion; the detector alarms past lambda.";
    QUALITY_RECLUSTER_EWMA: Gauge("quality.recluster_ewma", "ratio", "site")
        "EWMA of the re-cluster indicator: the recent share of chunks that failed every test.";
    QUALITY_SYNOPSIS_BYTES_PER_RECORD: Gauge("quality.synopsis_bytes_per_record", "bytes", "site")
        "Synopsis bytes sent per record consumed so far.";
    QUALITY_TEST_STAT: Gauge("quality.test_stat", "nats", "site")
        "J_fit of the last tested chunk (Eq. 4).";
    QUALITY_WEIGHT_ENTROPY: Gauge("quality.weight_entropy", "nats", "site, coordinator")
        "Shannon entropy of the current mixture's weights.";
    QUALITY_WEIGHT_MAX: Gauge("quality.weight_max", "ratio", "site, coordinator")
        "Largest weight of the current mixture.";
    QUALITY_WEIGHT_MIN: Gauge("quality.weight_min", "ratio", "site, coordinator")
        "Smallest weight of the current mixture; near 0 means a collapsing component.";
    ROUND_STATE: Gauge("round_state", "state", "runtime")
        "A child's liveness as its parent sees it (0 waiting, 1 joined, 2 done, 3 evicted); recorded only as `site<N>.round_state`, never taken from a peer.";
    SERVE_SCORE_US: Histogram("serve.score_us", "us", "serving")
        "Wall-clock time of one batch scored against a snapshot.";
    SERVE_SCORED_RECORDS: Counter("serve.scored_records", "records", "serving")
        "Records scored against a snapshot.";
    SERVE_SNAPSHOTS: Counter("serve.snapshots", "snapshots", "serving")
        "Snapshots published to readers; the last one's version.";
    SERVE_STALENESS_ROUNDS: Gauge("serve.staleness_rounds", "messages", "runtime")
        "Applied messages the published snapshot lags the live coordinator, at the last health probe.";
    SITE_CHUNK: SpanName("site.chunk", "span", "site")
        "A chunk's processing at its site: the root of the chunk's trace.";
    SITE_CHUNK_NS: Histogram("site.chunk_ns", "ns", "site")
        "Wall-clock time to process one chunk: test, then EM when every test failed (Figs. 5-7).";
    SITE_CLUSTERED: Counter("site.clustered", "chunks", "site")
        "Chunks that failed every test and were re-clustered by EM (a synopsis is sent).";
    SITE_EM: SpanName("site.em", "span", "site")
        "A chunk's EM re-cluster, with iterations x EM_ITER_COST_US as virtual cost.";
    SITE_FIT_CURRENT: Counter("site.fit_current", "chunks", "site")
        "Chunks that fit the current model (nothing is sent).";
    SITE_RECORDS: Counter("site.records", "records", "site")
        "Records the site consumed in full chunks.";
    SITE_SWITCHED: Counter("site.switched", "chunks", "site")
        "Chunks that fit an earlier model in the multi-test (a weight update is sent).";
    SITE_TEST: SpanName("site.test", "span", "site")
        "A chunk's test against the current model.";
    SITE_TESTS: Counter("site.tests", "tests", "site")
        "Fit tests started, against the current model and in the multi-test.";
    SITE_TESTS_CUT: Counter("site.tests_cut", "tests", "site")
        "Tests the model's density ceiling decided before their last block; never created on a site that cut none.";
    UPLINK_WAIT_US: Histogram("uplink.wait_us", "us", "runtime")
        "Time a socket node spent blocked in one idle wait; its count is the node's wake-ups.";
    UPLINK_WINDOW_STALLS: Counter("uplink.window_stalls", "steps", "runtime")
        "Times a site found its send window full and slept instead of pulling records (parent-bound).";
    WIRE_SEND: SpanName("wire.send", "span", "site")
        "One physical transmit of a frame, child of its wire span.";
    WIRE_SYNOPSIS: SpanName("wire.synopsis", "span", "site")
        "A synopsis frame from queueing at the site to release at the parent's inbox.";
    WIRE_UPDATE: SpanName("wire.update", "span", "site")
        "A weight-update frame from queueing at the site to release at the parent's inbox.";
}

/// The entry declaring `name`, if any.
pub fn lookup(name: &str) -> Option<&'static Entry> {
    CATALOGUE.binary_search_by(|e| e.name.cmp(name)).ok().map(|i| &CATALOGUE[i])
}

/// `docs/METRICS.md`: the catalogue as a Markdown table.
pub fn render_markdown() -> String {
    let mut out = String::from(
        "# Metric catalogue\n\nGenerated from `crates/obs/src/catalogue.rs` by `cargo run -p \
         cludistream-obs --example metrics_md > docs/METRICS.md`;\nan `obs` unit test fails when \
         the two differ.\n\nA child's series reach its parent's fleet registry as `site<N>.<name>` \
         (Prometheus: the same family with a\n`{site=\"N\"}` label; counters and histograms also \
         keep the unlabelled sum over children). Each local alert\nrule adds an `alert.<rule>` \
         gauge. Prometheus names are `cludistream_` plus the name with `.` and `-` as `_`,\nand \
         `_total` for counters; histograms render as summaries.\n\n\
         | name | kind | unit | layer | meaning |\n|---|---|---|---|---|\n",
    );
    for e in CATALOGUE {
        out += &format!("| `{}` | {} | {} | {} | {} |\n", e.name, e.kind, e.unit, e.layer, e.help);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_unique_and_lookup_finds_each() {
        for pair in CATALOGUE.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} before {}", pair[0].name, pair[1].name);
        }
        for e in CATALOGUE {
            assert_eq!(lookup(e.name), Some(e));
        }
        assert_eq!(lookup("made.up"), None);
    }

    #[test]
    fn metrics_md_is_the_rendered_catalogue() {
        let committed = include_str!("../../../docs/METRICS.md");
        assert!(
            committed == render_markdown(),
            "docs/METRICS.md is stale: run \
             `cargo run -p cludistream-obs --example metrics_md > docs/METRICS.md`"
        );
    }
}
