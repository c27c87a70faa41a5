//! Deterministic fault injection: message loss, duplication, reordering,
//! timed link partitions, and node crash/restart schedules.
//!
//! A [`FaultPlan`] is pure data plus a seed. The simulator draws every
//! fault decision from a dedicated [`cludistream_rng::StdRng`] stream
//! seeded from the plan, in event-loop order — which is itself
//! deterministic — so a given `(workload seed, FaultPlan)` pair replays
//! byte-identically: the same messages are dropped at the same simulated
//! times, the same duplicates appear, and journals diff clean across runs.
//!
//! The plan describes *what the network does*; recovering from it is the
//! protocol's job (see `cludistream::protocol` for the sequence-numbered
//! ACK/retransmit layer the CluDistream driver puts on top).

use crate::event::{NodeId, SimTime};

/// Per-link stochastic fault probabilities. One `LinkFaults` applies to
/// every link of the simulation (the paper's star has symmetric links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently discarded in flight.
    pub drop_p: f64,
    /// Probability a delivered message arrives twice.
    pub duplicate_p: f64,
    /// Probability a message is delayed by extra jitter, letting later
    /// sends overtake it (reordering).
    pub reorder_p: f64,
    /// Maximum extra delay (microseconds) applied to reordered messages.
    pub reorder_max_delay_us: SimTime,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults { drop_p: 0.0, duplicate_p: 0.0, reorder_p: 0.0, reorder_max_delay_us: 0 }
    }
}

/// A timed bidirectional link partition: messages between `a` and `b`
/// sent inside `[from_us, until_us)` are discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Partition start (inclusive), simulated microseconds.
    pub from_us: SimTime,
    /// Partition end (exclusive), simulated microseconds.
    pub until_us: SimTime,
}

impl Partition {
    /// True when a send `from → to` at time `t` falls inside this window.
    pub(crate) fn severs(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        let endpoints =
            (self.a == from && self.b == to) || (self.a == to && self.b == from);
        endpoints && t >= self.from_us && t < self.until_us
    }
}

/// A scheduled crash/restart of one node. While down, the node receives
/// nothing (arriving messages are dropped), its timers are cancelled, and
/// on restart its `on_restart` hook runs so it can resync from durable
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The node that crashes.
    pub node: NodeId,
    /// Crash time, simulated microseconds.
    pub down_at_us: SimTime,
    /// Restart time, simulated microseconds (must be `> down_at_us`).
    pub up_at_us: SimTime,
}

/// A complete deterministic fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
    /// Stochastic per-message faults applied to every link.
    pub link: LinkFaults,
    /// Timed link partitions.
    pub partitions: Vec<Partition>,
    /// Node crash/restart schedule.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// A quiet plan (no faults) with the given RNG seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Sets the per-link fault probabilities.
    pub fn with_link(mut self, link: LinkFaults) -> Self {
        self.link = link;
        self
    }

    /// Adds a timed bidirectional partition between `a` and `b`.
    pub fn with_partition(mut self, a: NodeId, b: NodeId, from_us: SimTime, until_us: SimTime) -> Self {
        self.partitions.push(Partition { a, b, from_us, until_us });
        self
    }

    /// Adds a crash/restart outage for `node`.
    pub fn with_outage(mut self, node: NodeId, down_at_us: SimTime, up_at_us: SimTime) -> Self {
        self.outages.push(Outage { node, down_at_us, up_at_us });
        self
    }

    /// The first partition severing `from → to` at time `t`, if any.
    pub(crate) fn severed(&self, from: NodeId, to: NodeId, t: SimTime) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.severs(from, to, t))
    }
}

/// Byte- and message-accurate accounting of what the fault layer did.
/// The conservation invariant `delivered + dropped == sent + duplicated`
/// holds once the event queue has drained (messages cannot vanish any
/// other way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages handed to a recipient's `on_message`.
    pub delivered_messages: u64,
    /// Bytes handed to recipients.
    pub delivered_bytes: u64,
    /// Messages discarded for any reason.
    pub dropped_messages: u64,
    /// Bytes discarded.
    pub dropped_bytes: u64,
    /// Drops caused by random loss (`LinkFaults::drop_p`).
    pub dropped_by_loss: u64,
    /// Drops caused by a partition window.
    pub dropped_by_partition: u64,
    /// Drops caused by the recipient being crashed at arrival.
    pub dropped_to_down_node: u64,
    /// Extra copies injected by `LinkFaults::duplicate_p`.
    pub duplicated_messages: u64,
    /// Bytes of injected duplicates.
    pub duplicated_bytes: u64,
    /// Messages given reorder jitter.
    pub reordered_messages: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Restart events executed.
    pub restarts: u64,
    /// Timers cancelled because their node crashed before they fired.
    pub timers_cancelled: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_severs_both_directions_inside_window() {
        let p = Partition { a: NodeId(0), b: NodeId(2), from_us: 100, until_us: 200 };
        assert!(p.severs(NodeId(0), NodeId(2), 100));
        assert!(p.severs(NodeId(2), NodeId(0), 199));
        assert!(!p.severs(NodeId(0), NodeId(2), 200), "until is exclusive");
        assert!(!p.severs(NodeId(0), NodeId(2), 99));
        assert!(!p.severs(NodeId(0), NodeId(1), 150), "wrong endpoints");
    }

    #[test]
    fn severed_finds_matching_partition() {
        let plan = FaultPlan::seeded(0)
            .with_partition(NodeId(0), NodeId(2), 0, 50)
            .with_partition(NodeId(1), NodeId(2), 100, 150);
        assert!(plan.severed(NodeId(2), NodeId(0), 25).is_some());
        assert!(plan.severed(NodeId(2), NodeId(0), 75).is_none());
        assert!(plan.severed(NodeId(1), NodeId(2), 125).is_some());
    }
}
