//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! Emits the legacy-but-universally-supported JSON array format: one
//! `"M"` (metadata) event naming each node's process, then one `"X"`
//! (complete) event per span. Every numeric field is an integer and the
//! events are sorted by `(start, node, span id)` before rendering, so the
//! output of a seeded run is **byte-identical** across machines — the
//! property the committed golden fixture relies on.

use crate::trace::SpanRecord;
use std::fmt::Write as _;

/// Renders span records as a Chrome trace-event JSON document. `pid` and
/// `tid` are the emitting node; timestamps are simulated microseconds
/// (the unit trace-event JSON expects); a duration is the larger of the
/// simulated width and the virtual compute cost, so pure-compute spans
/// show their virtual cost as width.
pub fn perfetto_json(spans: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|r| (r.start_us, r.node, r.span.0));

    let mut nodes: Vec<u32> = sorted.iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for node in nodes {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":{node},\
             \"args\":{{\"name\":\"node {node}\"}}}}"
        );
    }
    for r in sorted {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"cludistream\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"cost_us\":{}}}}}",
            r.name.as_str(),
            r.node,
            r.node,
            r.start_us,
            r.duration_us(),
            r.trace.0,
            r.span.0,
            r.parent.map(|p| p.0).unwrap_or(0),
            r.cost_us,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::SpanName;
    use crate::trace::{SpanId, SpanRecord, TraceId};

    fn rec(node: u32, seq: u64, start: u64, end: u64, cost: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId::new(node, 0),
            span: SpanId::new(node, seq),
            parent: (seq > 1).then(|| SpanId::new(node, seq - 1)),
            name: SpanName("s"),
            node,
            start_us: start,
            end_us: end,
            cost_us: cost,
        }
    }

    #[test]
    fn empty_export_is_valid_json_shell() {
        let json = perfetto_json(&[]);
        assert!(json.starts_with("{\"traceEvents\":[\n"), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"), "{json}");
    }

    #[test]
    fn export_is_sorted_and_integer_only() {
        // Deliberately out of order: the exporter must sort.
        let spans = vec![rec(1, 1, 500, 600, 0), rec(0, 1, 100, 100, 80), rec(0, 2, 100, 400, 0)];
        let json = perfetto_json(&spans);
        // Metadata first, one per node.
        let m0 = json.find("\"name\":\"node 0\"").expect("node 0 meta");
        let m1 = json.find("\"name\":\"node 1\"").expect("node 1 meta");
        assert!(m0 < m1);
        // X events ordered by start time; the zero-width compute span
        // reports its virtual cost as duration.
        let x_early = json.find("\"ts\":100,\"dur\":80").expect("cost-width span");
        let x_late = json.find("\"ts\":500,\"dur\":100").expect("wire span");
        assert!(m1 < x_early && x_early < x_late, "{json}");
        assert!(!json.contains('.'), "floats would break byte-stability: {json}");
    }

    #[test]
    fn export_is_deterministic() {
        let spans = vec![rec(0, 1, 1, 2, 0), rec(2, 1, 1, 2, 0)];
        assert_eq!(perfetto_json(&spans), perfetto_json(&spans));
    }
}
