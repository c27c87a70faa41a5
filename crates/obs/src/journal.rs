//! The structured event journal: typed events and their hand-rolled JSONL
//! serialization.
//!
//! One event becomes one JSON object on one line. Field order is fixed by
//! the serializer (never by map iteration), floats are formatted with
//! Rust's shortest-roundtrip `Display` (deterministic for a given bit
//! pattern), and the timestamp `t` is *simulated* microseconds — three
//! properties that together make journals of seeded runs byte-identical
//! across consecutive runs and therefore diffable and golden-testable.

use std::fmt::Write as _;

/// Outcome of a chunk's test-and-cluster decision, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The chunk fit the current model (no communication).
    FitCurrent,
    /// The chunk re-fit an older model from the list (weight update).
    Switched,
    /// No model fit; EM clustered the chunk into a new model.
    NewModel,
}

impl Verdict {
    /// Stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Verdict::FitCurrent => "fit_current",
            Verdict::Switched => "switched",
            Verdict::NewModel => "new_model",
        }
    }
}

/// Why the simulated network discarded a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss drawn from the fault plan's per-link drop probability.
    Loss,
    /// The link was inside a scheduled partition window.
    Partition,
    /// The recipient was crashed when the message arrived.
    NodeDown,
}

impl DropReason {
    /// Stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::NodeDown => "node_down",
        }
    }
}

/// A typed journal event. Every variant maps to one JSONL line; see the
/// module docs for the determinism rules its fields obey.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// EM reached ϖ-convergence (emitted by `gmm::em`; absent when the
    /// iteration cap stopped the loop).
    EmConverged {
        /// Iterations performed.
        iters: u64,
        /// The final average-log-likelihood improvement that fell below ϖ.
        delta_ll: f64,
    },
    /// A site tested a chunk against its current model (Eq. 4).
    ChunkTested {
        /// Site index.
        site: u32,
        /// Chunk index at that site.
        chunk: u64,
        /// Observed average log likelihood under the current model.
        avg_ll: f64,
        /// Calibrated fit tolerance the |J_fit| was compared against.
        threshold: f64,
        /// Final decision for the chunk.
        verdict: Verdict,
    },
    /// A site ran EM on a chunk (the "cluster" arm of test-and-cluster).
    Reclustered {
        /// Site index.
        site: u32,
        /// Chunk index at that site.
        chunk: u64,
    },
    /// A site's synopsis (NewModel message) left on the wire.
    SynopsisSent {
        /// Site index.
        site: u32,
        /// Encoded message size in bytes.
        bytes: u64,
    },
    /// The coordinator merged two groups (largest `M_merge`, Eq. 5).
    Merge {
        /// `(surviving, absorbed)` group ids.
        groups: (u64, u64),
        /// The winning `M_merge` value (inverse precision-weighted
        /// squared Mahalanobis distance between the aggregates).
        mahalanobis: f64,
    },
    /// The coordinator split drifted members out of a group (Eq. 6).
    Split {
        /// The group that lost members.
        group: u64,
        /// How many members were split off.
        members: u64,
    },
    /// A split-off component re-entered the hierarchy (Algorithm 2).
    ReMerge {
        /// The group it joined (possibly newly founded).
        group: u64,
    },
    /// Downhill-simplex refinement of a merged representative (Sec. 5.2.1).
    SimplexRefine {
        /// Objective evaluations spent by the simplex.
        iters: u64,
        /// Final L1 accuracy loss of the kept representative.
        loss: f64,
    },
    /// The simulated network discarded a message (fault injection).
    Dropped {
        /// Sending node id.
        from: u64,
        /// Intended recipient node id.
        to: u64,
        /// Wire size of the lost message.
        bytes: u64,
        /// Why it was discarded.
        reason: DropReason,
    },
    /// The fault layer delivered an extra copy of a message.
    Duplicated {
        /// Sending node id.
        from: u64,
        /// Recipient node id.
        to: u64,
        /// Wire size of the duplicated message.
        bytes: u64,
    },
    /// A site re-sent an unacknowledged synopsis frame (reliable delivery).
    Retransmitted {
        /// Site index.
        site: u32,
        /// Sequence number of the re-sent frame.
        seq: u64,
        /// Wire size of the retransmission.
        bytes: u64,
    },
    /// A scheduled link partition (declared at run start; the window is
    /// carried in the fields, not in `t`).
    Partitioned {
        /// One endpoint node id.
        a: u64,
        /// Other endpoint node id.
        b: u64,
        /// Partition start, simulated microseconds.
        from_us: u64,
        /// Partition end (exclusive), simulated microseconds.
        until_us: u64,
    },
    /// A node crashed (fault plan outage): its volatile state is lost and
    /// its pending timers are cancelled.
    SiteCrashed {
        /// Crashed node id.
        node: u64,
    },
    /// A crashed node restarted and resynced from its durable checkpoint.
    SiteRecovered {
        /// Restarted node id.
        node: u64,
    },
    /// A site completed the rendezvous handshake with the coordinator
    /// (socket transport; `coord.join` counter accompanies it).
    SiteJoined {
        /// Site index.
        site: u32,
    },
    /// The coordinator evicted a site whose heartbeats went silent past
    /// the liveness timeout (`coord.evict` counter accompanies it).
    SiteEvicted {
        /// Site index.
        site: u32,
        /// Microseconds since the site's last observed traffic.
        silent_us: u64,
    },
    /// An evicted or disconnected site reconnected and resynced from the
    /// coordinator's cumulative ACK (go-back-N checkpoint resync).
    SiteResynced {
        /// Site index.
        site: u32,
        /// The cumulative ACK the site resumed from.
        ack: u64,
    },
    /// One line of a site's flight-recorder ring, replayed into the
    /// coordinator journal when the site resynced after a crash or
    /// eviction. `entry` is the site's original JSONL event line (its
    /// local `t`), embedded as an escaped string.
    FlightRecorder {
        /// Originating site index.
        site: u32,
        /// The site's journal line, verbatim.
        entry: String,
    },
}

impl Event {
    /// Stable event-type name (the `"event"` field of the JSONL line).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Event::EmConverged { .. } => "EmConverged",
            Event::ChunkTested { .. } => "ChunkTested",
            Event::Reclustered { .. } => "Reclustered",
            Event::SynopsisSent { .. } => "SynopsisSent",
            Event::Merge { .. } => "Merge",
            Event::Split { .. } => "Split",
            Event::ReMerge { .. } => "ReMerge",
            Event::SimplexRefine { .. } => "SimplexRefine",
            Event::Dropped { .. } => "Dropped",
            Event::Duplicated { .. } => "Duplicated",
            Event::Retransmitted { .. } => "Retransmitted",
            Event::Partitioned { .. } => "Partitioned",
            Event::SiteCrashed { .. } => "SiteCrashed",
            Event::SiteRecovered { .. } => "SiteRecovered",
            Event::SiteJoined { .. } => "SiteJoined",
            Event::SiteEvicted { .. } => "SiteEvicted",
            Event::SiteResynced { .. } => "SiteResynced",
            Event::FlightRecorder { .. } => "FlightRecorder",
        }
    }

    /// Renders the event as one JSON object (no trailing newline), stamped
    /// with simulated time `t` (microseconds).
    pub(crate) fn to_json(&self, t: u64) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"t\":{t},\"event\":\"{}\"", self.name());
        match self {
            Event::EmConverged { iters, delta_ll } => {
                let _ = write!(s, ",\"iters\":{iters},\"delta_ll\":{}", json_f64(*delta_ll));
            }
            Event::ChunkTested { site, chunk, avg_ll, threshold, verdict } => {
                let _ = write!(
                    s,
                    ",\"site\":{site},\"chunk\":{chunk},\"avg_ll\":{},\"threshold\":{},\"verdict\":\"{}\"",
                    json_f64(*avg_ll),
                    json_f64(*threshold),
                    verdict.as_str()
                );
            }
            Event::Reclustered { site, chunk } => {
                let _ = write!(s, ",\"site\":{site},\"chunk\":{chunk}");
            }
            Event::SynopsisSent { site, bytes } => {
                let _ = write!(s, ",\"site\":{site},\"bytes\":{bytes}");
            }
            Event::Merge { groups, mahalanobis } => {
                let _ = write!(
                    s,
                    ",\"groups\":[{},{}],\"mahalanobis\":{}",
                    groups.0,
                    groups.1,
                    json_f64(*mahalanobis)
                );
            }
            Event::Split { group, members } => {
                let _ = write!(s, ",\"group\":{group},\"members\":{members}");
            }
            Event::ReMerge { group } => {
                let _ = write!(s, ",\"group\":{group}");
            }
            Event::SimplexRefine { iters, loss } => {
                let _ = write!(s, ",\"iters\":{iters},\"loss\":{}", json_f64(*loss));
            }
            Event::Dropped { from, to, bytes, reason } => {
                let _ = write!(
                    s,
                    ",\"from\":{from},\"to\":{to},\"bytes\":{bytes},\"reason\":\"{}\"",
                    reason.as_str()
                );
            }
            Event::Duplicated { from, to, bytes } => {
                let _ = write!(s, ",\"from\":{from},\"to\":{to},\"bytes\":{bytes}");
            }
            Event::Retransmitted { site, seq, bytes } => {
                let _ = write!(s, ",\"site\":{site},\"seq\":{seq},\"bytes\":{bytes}");
            }
            Event::Partitioned { a, b, from_us, until_us } => {
                let _ = write!(s, ",\"a\":{a},\"b\":{b},\"from_us\":{from_us},\"until_us\":{until_us}");
            }
            Event::SiteCrashed { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
            Event::SiteRecovered { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
            Event::SiteJoined { site } => {
                let _ = write!(s, ",\"site\":{site}");
            }
            Event::SiteEvicted { site, silent_us } => {
                let _ = write!(s, ",\"site\":{site},\"silent_us\":{silent_us}");
            }
            Event::SiteResynced { site, ack } => {
                let _ = write!(s, ",\"site\":{site},\"ack\":{ack}");
            }
            Event::FlightRecorder { site, entry } => {
                let _ = write!(s, ",\"site\":{site},\"entry\":\"{}\"", json_escape(entry));
            }
        }
        s.push('}');
        s
    }
}

/// Formats an `f64` as a JSON value: shortest-roundtrip decimal for finite
/// values, `null` for NaN/infinities (which JSON cannot represent).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits the decimal point for integral floats; keep the
        // output unambiguously a float only when it already is one — JSON
        // readers accept both, and byte-stability is what matters.
        s
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_tested_serializes_with_fixed_field_order() {
        let e = Event::ChunkTested {
            site: 1,
            chunk: 7,
            avg_ll: -2.5,
            threshold: 0.125,
            verdict: Verdict::FitCurrent,
        };
        assert_eq!(
            e.to_json(42),
            "{\"t\":42,\"event\":\"ChunkTested\",\"site\":1,\"chunk\":7,\
             \"avg_ll\":-2.5,\"threshold\":0.125,\"verdict\":\"fit_current\"}"
        );
    }

    #[test]
    fn every_variant_serializes() {
        let events = [
            Event::EmConverged { iters: 9, delta_ll: 1e-5 },
            Event::ChunkTested {
                site: 0,
                chunk: 0,
                avg_ll: 0.0,
                threshold: 0.0,
                verdict: Verdict::NewModel,
            },
            Event::Reclustered { site: 0, chunk: 3 },
            Event::SynopsisSent { site: 2, bytes: 628 },
            Event::Merge { groups: (4, 9), mahalanobis: 12.5 },
            Event::Split { group: 4, members: 2 },
            Event::ReMerge { group: 11 },
            Event::SimplexRefine { iters: 300, loss: 0.03 },
            Event::Dropped { from: 0, to: 2, bytes: 21, reason: DropReason::Loss },
            Event::Duplicated { from: 1, to: 2, bytes: 30 },
            Event::Retransmitted { site: 0, seq: 4, bytes: 30 },
            Event::Partitioned { a: 1, b: 2, from_us: 1000, until_us: 2000 },
            Event::SiteCrashed { node: 1 },
            Event::SiteRecovered { node: 1 },
            Event::SiteJoined { site: 2 },
            Event::SiteEvicted { site: 2, silent_us: 250_000 },
            Event::SiteResynced { site: 2, ack: 17 },
            Event::FlightRecorder { site: 1, entry: "{\"t\":0}".to_owned() },
        ];
        for e in &events {
            let line = e.to_json(0);
            assert!(line.starts_with("{\"t\":0,\"event\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains(e.name()), "{line}");
            // Exactly one object per line, no raw newlines.
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn dropped_serializes_with_fixed_field_order() {
        let e = Event::Dropped { from: 0, to: 3, bytes: 629, reason: DropReason::Partition };
        assert_eq!(
            e.to_json(17),
            "{\"t\":17,\"event\":\"Dropped\",\"from\":0,\"to\":3,\
             \"bytes\":629,\"reason\":\"partition\"}"
        );
    }

    #[test]
    fn flight_recorder_entry_is_escaped() {
        let e = Event::FlightRecorder {
            site: 3,
            entry: "{\"t\":9,\"event\":\"ReMerge\",\"group\":1}".to_owned(),
        };
        assert_eq!(
            e.to_json(100),
            "{\"t\":100,\"event\":\"FlightRecorder\",\"site\":3,\
             \"entry\":\"{\\\"t\\\":9,\\\"event\\\":\\\"ReMerge\\\",\\\"group\\\":1}\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(-0.25), "-0.25");
    }

    #[test]
    fn serialization_is_deterministic() {
        let e = Event::SimplexRefine { iters: 123, loss: 0.6180339887498949 };
        assert_eq!(e.to_json(5), e.to_json(5));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
