use crate::event::{NodeId, SimTime, MICROS_PER_SEC};

/// Communication topology. Edges are *enforced* by the simulator: sending
/// along a non-edge is a [`crate::SimError::IllegalLink`].
#[derive(Debug, Clone)]
pub enum Topology {
    /// Every node may talk to every node (useful for tests).
    Complete,
    /// `spokes` remote sites with ids `0..spokes`, one hub (coordinator)
    /// with id `spokes`. Spokes talk to the hub only — the paper's
    /// communication model.
    Star {
        /// Number of spoke nodes.
        spokes: usize,
    },
    /// A rooted tree given by each node's parent (`parent[i]` is the parent
    /// of node `i`; the root has `parent[root] == root`). Communication is
    /// allowed between a node and its parent only — the paper's Sec. 7
    /// multi-layer network.
    Tree {
        /// Parent pointers.
        parent: Vec<usize>,
    },
}

impl Topology {
    /// Star with `spokes` remote sites; the hub is node `spokes`.
    pub fn star(spokes: usize) -> Self {
        Topology::Star { spokes }
    }

    /// Id of the star hub (coordinator).
    pub fn star_hub(spokes: usize) -> NodeId {
        NodeId(spokes)
    }

    /// Number of nodes the topology describes (`None` for `Complete`, which
    /// imposes no size).
    pub(crate) fn size(&self) -> Option<usize> {
        match self {
            Topology::Complete => None,
            Topology::Star { spokes } => Some(spokes + 1),
            Topology::Tree { parent } => Some(parent.len()),
        }
    }

    /// True when `from → to` is a legal link.
    pub(crate) fn allows(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        match self {
            Topology::Complete => true,
            Topology::Star { spokes } => {
                let hub = *spokes;
                (from.0 == hub && to.0 < hub) || (to.0 == hub && from.0 < hub)
            }
            Topology::Tree { parent } => {
                let (f, t) = (from.0, to.0);
                if f >= parent.len() || t >= parent.len() {
                    return false;
                }
                parent[f] == t || parent[t] == f
            }
        }
    }
}

/// Link timing model: every message is delayed by `latency` plus its size
/// divided by `bandwidth`.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Fixed per-message latency in microseconds.
    pub latency_us: SimTime,
    /// Bandwidth in bytes per second (0 = infinite).
    pub bandwidth_bps: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // 1 ms latency, 10 MB/s — a modest WAN link; absolute values only
        // shift the time axis, the experiments report per-second byte
        // totals.
        LinkModel { latency_us: 1_000, bandwidth_bps: 10_000_000 }
    }
}

impl LinkModel {
    /// Delivery delay for a message of `bytes` bytes.
    pub(crate) fn delay(&self, bytes: usize) -> SimTime {
        let transmit = if self.bandwidth_bps == 0 {
            0
        } else {
            (bytes as u128 * MICROS_PER_SEC as u128 / self.bandwidth_bps as u128) as SimTime
        };
        self.latency_us + transmit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_allows_spoke_hub_only() {
        let t = Topology::star(3); // spokes 0..3, hub 3
        assert!(t.allows(NodeId(0), NodeId(3)));
        assert!(t.allows(NodeId(3), NodeId(2)));
        assert!(!t.allows(NodeId(0), NodeId(1)), "spoke-to-spoke must be illegal");
        assert!(!t.allows(NodeId(3), NodeId(3)));
        assert!(!t.allows(NodeId(0), NodeId(4)), "out-of-range hub-like id");
        assert_eq!(t.size(), Some(4));
        assert_eq!(Topology::star_hub(3), NodeId(3));
    }

    #[test]
    fn complete_allows_everything_but_self() {
        let t = Topology::Complete;
        assert!(t.allows(NodeId(0), NodeId(9)));
        assert!(!t.allows(NodeId(4), NodeId(4)));
        assert_eq!(t.size(), None);
    }

    #[test]
    fn tree_allows_parent_child_only() {
        // 0 ← 1, 0 ← 2, 1 ← 3.
        let t = Topology::Tree { parent: vec![0, 0, 0, 1] };
        assert!(t.allows(NodeId(1), NodeId(0)));
        assert!(t.allows(NodeId(0), NodeId(2)));
        assert!(t.allows(NodeId(3), NodeId(1)));
        assert!(!t.allows(NodeId(1), NodeId(2)), "siblings must be illegal");
        assert!(!t.allows(NodeId(3), NodeId(0)), "grandparent must be illegal");
        assert!(!t.allows(NodeId(0), NodeId(9)), "out of range");
        assert_eq!(t.size(), Some(4));
    }

    #[test]
    fn link_delay_combines_latency_and_bandwidth() {
        let l = LinkModel { latency_us: 100, bandwidth_bps: 1_000_000 }; // 1 MB/s
        // 1000 bytes at 1 MB/s = 1000 µs transmit + 100 µs latency.
        assert_eq!(l.delay(1000), 1100);
        assert_eq!(l.delay(0), 100);
    }

    #[test]
    fn instant_link_has_zero_delay() {
        assert_eq!(LinkModel { latency_us: 0, bandwidth_bps: 0 }.delay(1 << 20), 0);
    }

    #[test]
    fn default_link_is_sane() {
        let l = LinkModel::default();
        assert!(l.delay(1) >= l.latency_us);
    }
}
