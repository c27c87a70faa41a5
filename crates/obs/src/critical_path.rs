//! Critical-path extraction: walk finished traces and attribute
//! end-to-end group-update latency to {EM, simplex refine,
//! retransmit/backoff, queueing}.
//!
//! The attribution is structural, not heuristic:
//!
//! - **em** — virtual cost of `site.em` spans (EM iterations × per-iter
//!   cost);
//! - **simplex** — virtual cost of `coord.simplex` spans (objective
//!   evaluations × per-eval cost);
//! - **retransmit** — for each wire span, the gap between its *first* and
//!   *last* `wire.send` child: time burned re-sending under go-back-N
//!   backoff. A fault-free run sends each frame exactly once, so this is
//!   provably zero without faults;
//! - **queueing** — wire-span close (coordinator inbox release) minus the
//!   last send: propagation delay plus in-order head-of-line blocking at
//!   the reliable inbox.

use crate::catalogue;
use crate::trace::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate latency attribution over every traced group update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Number of traces containing at least one wire span (i.e. that
    /// actually shipped a synopsis or weight update to the coordinator).
    pub traces: u64,
    /// Virtual EM compute, microseconds.
    pub em_us: u64,
    /// Virtual simplex-refinement compute, microseconds.
    pub simplex_us: u64,
    /// Retransmit/backoff time, microseconds.
    pub retransmit_us: u64,
    /// Wire propagation + inbox queueing time, microseconds.
    pub queueing_us: u64,
}

impl LatencyBreakdown {
    /// Sum of all attributed categories.
    pub(crate) fn total_us(&self) -> u64 {
        self.em_us + self.simplex_us + self.retransmit_us + self.queueing_us
    }

    /// `(category name, microseconds)` of the largest contributor. Ties
    /// break in the fixed order em, simplex, retransmit, queueing.
    pub(crate) fn dominant(&self) -> (&'static str, u64) {
        let cats = [
            ("em", self.em_us),
            ("simplex", self.simplex_us),
            ("retransmit", self.retransmit_us),
            ("queueing", self.queueing_us),
        ];
        let mut best = cats[0];
        for c in cats {
            if c.1 > best.1 {
                best = c;
            }
        }
        best
    }

    /// Share of the total in `[0, 1]` for a category value (0 when the
    /// total is 0).
    pub(crate) fn share(&self, part_us: u64) -> f64 {
        let total = self.total_us();
        if total == 0 {
            0.0
        } else {
            part_us as f64 / total as f64
        }
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "critical path over {} traced group updates:", self.traces);
        for (name, us) in [
            ("em", self.em_us),
            ("simplex", self.simplex_us),
            ("retransmit", self.retransmit_us),
            ("queueing", self.queueing_us),
        ] {
            let _ = writeln!(out, "  {name:<12} {us:>12} us  ({:>5.1}%)", 100.0 * self.share(us));
        }
        let (name, us) = self.dominant();
        let _ = writeln!(out, "  dominant: {name} ({:.1}% of {} us)", 100.0 * self.share(us), self.total_us());
        out
    }
}

/// Walks every trace in `spans` and attributes its latency. See the
/// module docs for the category definitions.
pub fn analyze(spans: &[SpanRecord]) -> LatencyBreakdown {
    // Group sends under their parent wire span up front.
    let mut sends: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if s.name == catalogue::WIRE_SEND {
            if let Some(parent) = s.parent {
                sends.entry(parent.0).or_default().push(s);
            }
        }
    }

    let mut traced: BTreeMap<u64, bool> = BTreeMap::new();
    let mut out = LatencyBreakdown::default();
    for s in spans {
        match s.name {
            catalogue::SITE_EM => out.em_us += s.cost_us,
            catalogue::COORD_SIMPLEX => out.simplex_us += s.cost_us,
            // The spans covering a frame's whole wire lifetime (send →
            // inbox release); `wire.send` markers are their children.
            catalogue::WIRE_SYNOPSIS | catalogue::WIRE_UPDATE => {
                traced.insert(s.trace.0, true);
                let (first, last) = match sends.get(&s.span.0) {
                    Some(v) => {
                        let first = v.iter().map(|x| x.start_us).min().unwrap_or(s.start_us);
                        let last = v.iter().map(|x| x.start_us).max().unwrap_or(s.start_us);
                        (first, last)
                    }
                    // No recorded sends (e.g. direct delivery): the span
                    // itself brackets the transfer.
                    None => (s.start_us, s.start_us),
                };
                out.retransmit_us += last.saturating_sub(first);
                out.queueing_us += s.end_us.saturating_sub(last);
            }
            _ => {}
        }
    }
    out.traces = traced.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{
        SpanName, COORD_APPLY, COORD_SIMPLEX, SITE_CHUNK, SITE_EM, WIRE_SEND, WIRE_SYNOPSIS,
        WIRE_UPDATE,
    };
    use crate::trace::{SpanId, SpanRecord, TraceId};

    fn span(
        trace: u64,
        seq: u64,
        parent: Option<u64>,
        name: SpanName,
        start: u64,
        end: u64,
        cost: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span: SpanId(seq),
            parent: parent.map(SpanId),
            name,
            node: 0,
            start_us: start,
            end_us: end,
            cost_us: cost,
        }
    }

    #[test]
    fn empty_trace_set_is_all_zero() {
        let b = analyze(&[]);
        assert_eq!(b, LatencyBreakdown::default());
        assert_eq!(b.total_us(), 0);
        assert_eq!(b.share(0), 0.0);
    }

    #[test]
    fn single_send_has_zero_retransmit() {
        let spans = vec![
            span(1, 10, None, SITE_CHUNK, 100, 100, 0),
            span(1, 11, Some(10), SITE_EM, 100, 100, 120),
            span(1, 12, Some(10), WIRE_SYNOPSIS, 100, 400, 0),
            span(1, 13, Some(12), WIRE_SEND, 100, 100, 0),
        ];
        let b = analyze(&spans);
        assert_eq!(b.traces, 1);
        assert_eq!(b.em_us, 120);
        assert_eq!(b.retransmit_us, 0);
        assert_eq!(b.queueing_us, 300);
        assert_eq!(b.dominant().0, "queueing");
    }

    #[test]
    fn retransmits_split_wire_time() {
        // Sent at 100, retransmitted at 600 and 1600, released at 1900:
        // retransmit = 1600-100, queueing = 1900-1600.
        let spans = vec![
            span(1, 12, None, WIRE_SYNOPSIS, 100, 1900, 0),
            span(1, 13, Some(12), WIRE_SEND, 100, 100, 0),
            span(1, 14, Some(12), WIRE_SEND, 600, 600, 0),
            span(1, 15, Some(12), WIRE_SEND, 1600, 1600, 0),
            span(1, 16, Some(12), COORD_APPLY, 1900, 1900, 0),
            span(1, 17, Some(16), COORD_SIMPLEX, 1900, 1900, 55),
        ];
        let b = analyze(&spans);
        assert_eq!(b.retransmit_us, 1500);
        assert_eq!(b.queueing_us, 300);
        assert_eq!(b.simplex_us, 55);
        assert_eq!(b.dominant().0, "retransmit");
        let r = b.render();
        assert!(r.contains("dominant: retransmit"), "{r}");
        assert!(r.contains("critical path over 1 traced group updates"), "{r}");
    }

    #[test]
    fn traces_count_distinct_wire_traces() {
        let spans = vec![
            span(1, 12, None, WIRE_SYNOPSIS, 0, 10, 0),
            span(1, 13, None, WIRE_UPDATE, 20, 30, 0),
            span(2, 21, None, WIRE_UPDATE, 5, 9, 0),
            span(3, 31, None, SITE_CHUNK, 0, 0, 0), // no wire span: not a group update
        ];
        assert_eq!(analyze(&spans).traces, 2);
    }
}
