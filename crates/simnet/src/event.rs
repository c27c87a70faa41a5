use std::cmp::Ordering;

/// Simulation time in microseconds since simulation start.
pub type SimTime = u64;

/// Microseconds per simulated second.
pub const MICROS_PER_SEC: SimTime = 1_000_000;

/// Identifier of a simulation node (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An event awaiting delivery.
#[derive(Debug)]
pub(crate) enum SimEvent<M> {
    /// A message in flight.
    Message {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Payload.
        payload: M,
        /// Wire size in bytes (for communication-cost accounting).
        bytes: usize,
    },
    /// A timer set by a node on itself.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Caller-chosen tag distinguishing concurrent timers.
        tag: u64,
        /// The node's crash epoch when the timer was set. A timer fires
        /// only if the node's epoch is unchanged: a crash bumps the epoch,
        /// cancelling every timer armed before it (a restarted process has
        /// no memory of them).
        epoch: u64,
    },
    /// A scheduled node crash (from a [`crate::FaultPlan`] outage).
    Crash {
        /// The node going down.
        node: NodeId,
    },
    /// A scheduled node restart ending an outage.
    Restart {
        /// The node coming back.
        node: NodeId,
    },
}

/// Heap entry: an event plus its firing time and a monotone sequence number
/// for deterministic FIFO tie-breaking.
#[derive(Debug)]
pub(crate) struct QueuedEvent<M> {
    /// Firing time.
    pub time: SimTime,
    /// Tie-breaker (insertion order).
    pub seq: u64,
    /// The event itself.
    pub event: SimEvent<M>,
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest-first.
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for QueuedEvent<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn entry(time: SimTime, seq: u64) -> QueuedEvent<()> {
        QueuedEvent { time, seq, event: SimEvent::Timer { node: NodeId(0), tag: 0, epoch: 0 } }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut h = BinaryHeap::new();
        h.push(entry(30, 0));
        h.push(entry(10, 1));
        h.push(entry(20, 2));
        assert_eq!(h.pop().unwrap().time, 10);
        assert_eq!(h.pop().unwrap().time, 20);
        assert_eq!(h.pop().unwrap().time, 30);
    }

    #[test]
    fn ties_broken_by_sequence() {
        let mut h = BinaryHeap::new();
        h.push(entry(10, 5));
        h.push(entry(10, 2));
        h.push(entry(10, 9));
        assert_eq!(h.pop().unwrap().seq, 2);
        assert_eq!(h.pop().unwrap().seq, 5);
        assert_eq!(h.pop().unwrap().seq, 9);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    mod props {
        use super::*;
        use cludistream_rng::{check, Rng};
        use std::collections::BinaryHeap;

        /// Any random schedule pops in (time, seq) order — the
        /// determinism guarantee the whole simulator rests on.
        #[test]
        fn random_schedules_pop_in_order() {
            check::cases("random_schedules_pop_in_order", 64, |rng| {
                let n = rng.gen_range(1..100);
                let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000u64)).collect();
                let mut heap = BinaryHeap::new();
                for (seq, &time) in times.iter().enumerate() {
                    heap.push(entry(time, seq as u64));
                }
                let mut prev: Option<(SimTime, u64)> = None;
                while let Some(e) = heap.pop() {
                    if let Some((pt, ps)) = prev {
                        assert!(
                            e.time > pt || (e.time == pt && e.seq > ps),
                            "order violated: ({}, {}) after ({pt}, {ps})",
                            e.time, e.seq
                        );
                    }
                    prev = Some((e.time, e.seq));
                }
            });
        }
    }
}
