//! Message tracing for protocol debugging and validation.
//!
//! A [`Trace`] records every delivered message as a `(time, from, to,
//! bytes)` row. Experiments and tests use it to assert protocol-level
//! properties — causality (a coordinator update never precedes the
//! triggering site event), per-link activity windows, and burst structure
//! — that aggregate [`crate::CommStats`] counters cannot express.

use crate::event::{NodeId, SimTime};

/// One traced message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Send time (the delivery happens `LinkModel::delay` later).
    pub sent_at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Wire size.
    pub bytes: usize,
}

/// An append-only message trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry. The simulator calls this on every send.
    pub fn record(&mut self, sent_at: SimTime, from: NodeId, to: NodeId, bytes: usize) {
        self.entries.push(TraceEntry { sent_at, from, to, bytes });
    }

    /// All entries in send order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of traced messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been traced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries sent over the directed link `from → to`.
    pub fn on_link(&self, from: NodeId, to: NodeId) -> Vec<TraceEntry> {
        self.entries.iter().filter(|e| e.from == from && e.to == to).copied().collect()
    }

    /// The longest gap (microseconds) between consecutive sends — the
    /// "silence" metric behind the stability claims. Returns `None` with
    /// fewer than two entries.
    pub fn longest_silence(&self) -> Option<SimTime> {
        if self.entries.len() < 2 {
            return None;
        }
        self.entries
            .windows(2)
            .map(|w| w[1].sent_at - w[0].sent_at)
            .max()
    }

    /// True when entries are in non-decreasing time order (the simulator
    /// guarantees this; tests assert it).
    pub fn is_monotone(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].sent_at <= w[1].sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.record(0, NodeId(0), NodeId(2), 10);
        t.record(100, NodeId(1), NodeId(2), 20);
        t.record(500, NodeId(0), NodeId(2), 30);
        t
    }

    #[test]
    fn records_in_order() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(t.is_monotone());
        assert_eq!(t.entries()[1].bytes, 20);
    }

    #[test]
    fn link_filter() {
        let t = sample();
        let link = t.on_link(NodeId(0), NodeId(2));
        assert_eq!(link.len(), 2);
        assert!(t.on_link(NodeId(2), NodeId(0)).is_empty());
    }

    #[test]
    fn longest_silence() {
        let t = sample();
        assert_eq!(t.longest_silence(), Some(400));
        assert_eq!(Trace::new().longest_silence(), None);
    }

    #[test]
    fn non_monotone_detected() {
        let mut t = Trace::new();
        t.record(100, NodeId(0), NodeId(1), 1);
        t.record(50, NodeId(0), NodeId(1), 1);
        assert!(!t.is_monotone());
    }
}
