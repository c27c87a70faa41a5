use crate::event::{NodeId, SimTime, MICROS_PER_SEC};
use std::collections::HashMap;

/// Per-directed-link accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LinkCounters {
    bytes: u64,
    messages: u64,
}

/// Byte-accurate communication accounting with a per-second time series —
/// the measurement instrument behind the paper's Fig. 2 ("the total
/// communication cost is collected every second").
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    total_bytes: u64,
    total_messages: u64,
    /// bytes per simulated second, indexed by second.
    per_second: Vec<u64>,
    /// (from, to) → bytes and message counts.
    per_link: HashMap<(NodeId, NodeId), LinkCounters>,
}

impl CommStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `bytes` bytes sent at `time`.
    pub fn record(&mut self, time: SimTime, from: NodeId, to: NodeId, bytes: usize) {
        self.total_bytes += bytes as u64;
        self.total_messages += 1;
        let sec = (time / MICROS_PER_SEC) as usize;
        if self.per_second.len() <= sec {
            self.per_second.resize(sec + 1, 0);
        }
        self.per_second[sec] += bytes as u64;
        let link = self.per_link.entry((from, to)).or_default();
        link.bytes += bytes as u64;
        link.messages += 1;
    }

    /// Total bytes transmitted.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages transmitted.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Bytes transmitted during each simulated second.
    pub fn per_second(&self) -> &[u64] {
        &self.per_second
    }

    /// Cumulative bytes at the end of each simulated second.
    pub fn cumulative_per_second(&self) -> Vec<u64> {
        let mut acc = 0;
        self.per_second
            .iter()
            .map(|&b| {
                acc += b;
                acc
            })
            .collect()
    }

    /// Bytes received *by* a node over all links (in a star this is the
    /// coordinator's ingress load).
    pub fn bytes_to(&self, node: NodeId) -> u64 {
        self.per_link.iter().filter(|((_, t), _)| *t == node).map(|(_, l)| l.bytes).sum()
    }

    /// Messages received *by* a node over all links.
    pub fn messages_to(&self, node: NodeId) -> u64 {
        self.per_link.iter().filter(|((_, t), _)| *t == node).map(|(_, l)| l.messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut s = CommStats::new();
        s.record(0, NodeId(0), NodeId(1), 100);
        s.record(500_000, NodeId(1), NodeId(0), 50);
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.total_messages(), 2);
    }

    #[test]
    fn per_second_buckets() {
        let mut s = CommStats::new();
        s.record(0, NodeId(0), NodeId(1), 10);
        s.record(999_999, NodeId(0), NodeId(1), 20);
        s.record(1_000_000, NodeId(0), NodeId(1), 30);
        s.record(3_500_000, NodeId(0), NodeId(1), 40);
        assert_eq!(s.per_second(), &[30, 30, 0, 40]);
        assert_eq!(s.cumulative_per_second(), vec![30, 60, 60, 100]);
    }

    #[test]
    fn ingress_mirrors_egress() {
        let mut s = CommStats::new();
        s.record(0, NodeId(0), NodeId(2), 5);
        s.record(0, NodeId(1), NodeId(2), 7);
        s.record(0, NodeId(2), NodeId(0), 11);
        // The hub receives what the spokes send.
        assert_eq!(s.bytes_to(NodeId(2)), 12);
        assert_eq!(s.bytes_to(NodeId(0)), 11);
        assert_eq!(s.bytes_to(NodeId(1)), 0);
    }

    #[test]
    fn message_counts_per_node_and_link() {
        let mut s = CommStats::new();
        s.record(0, NodeId(0), NodeId(2), 5);
        s.record(1, NodeId(0), NodeId(2), 5);
        s.record(2, NodeId(1), NodeId(2), 7);
        assert_eq!(s.messages_to(NodeId(2)), 3);
        assert_eq!(s.messages_to(NodeId(0)), 0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CommStats::new();
        assert_eq!(s.total_bytes(), 0);
        assert!(s.per_second().is_empty());
        assert!(s.cumulative_per_second().is_empty());
        assert_eq!(s.bytes_to(NodeId(0)), 0);
        assert_eq!(s.messages_to(NodeId(0)), 0);
    }
}
