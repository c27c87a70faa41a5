use crate::event::{NodeId, QueuedEvent, SimEvent, SimTime};
use crate::faults::{FaultPlan, FaultStats};
use crate::network::{LinkModel, Topology};
use crate::node::{Action, Context, Node};
use crate::stats::CommStats;
use cludistream_obs::{net, DropReason, Event as ObsEvent, Obs, Recorder};
use cludistream_rng::{Rng, StdRng};
use std::collections::BinaryHeap;
use std::fmt;

/// Errors surfaced by the simulation driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node attempted to send along a link the topology forbids.
    IllegalLink {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// A message was addressed to a node id that does not exist.
    UnknownNode(NodeId),
    /// The node count does not match what the topology requires.
    TopologySize {
        /// Nodes registered.
        have: usize,
        /// Nodes the topology describes.
        need: usize,
    },
    /// A fault-plan outage is malformed (restart not strictly after the
    /// crash).
    BadOutage {
        /// The node the outage concerns.
        node: NodeId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllegalLink { from, to } => {
                write!(f, "illegal link {from} -> {to} for this topology")
            }
            SimError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SimError::TopologySize { have, need } => {
                write!(f, "topology requires {need} nodes, {have} registered")
            }
            SimError::BadOutage { node } => {
                write!(f, "outage for {node} must restart strictly after it crashes")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The deterministic event loop.
///
/// Nodes are registered in id order with [`Simulation::add_node`]; the run
/// starts with every node's `on_start`, then drains the event queue until
/// empty or the optional time limit is reached.
pub struct Simulation<M> {
    nodes: Vec<Box<dyn Node<M>>>,
    topology: Topology,
    link: LinkModel,
    queue: BinaryHeap<QueuedEvent<M>>,
    time: SimTime,
    seq: u64,
    stats: CommStats,
    obs: Obs,
    /// Fault schedule plus its dedicated RNG stream (None = reliable net).
    fault: Option<FaultCtl>,
    /// Always-on delivery/fault accounting (zeros without a plan).
    fault_stats: FaultStats,
    /// Which nodes are currently crashed.
    down: Vec<bool>,
    /// Per-node crash epoch; bumped on crash to cancel stale timers.
    epochs: Vec<u64>,
    /// Set once the plan's outages/partitions have been scheduled, so a
    /// resumed `run_until` does not schedule them twice.
    faults_scheduled: bool,
    /// How to clone a payload for duplicate injection; captured by
    /// [`Simulation::set_fault_plan`], which requires `M: Clone`.
    clone_payload: Option<fn(&M) -> M>,
}

/// The live fault state: the plan and the RNG stream its decisions come
/// from.
struct FaultCtl {
    plan: FaultPlan,
    rng: StdRng,
}

impl<M: 'static> Simulation<M> {
    /// Creates a simulation over the given topology and link model.
    pub fn new(topology: Topology, link: LinkModel) -> Self {
        Simulation {
            nodes: Vec::new(),
            topology,
            link,
            queue: BinaryHeap::new(),
            time: 0,
            seq: 0,
            stats: CommStats::new(),
            obs: Obs::noop(),
            fault: None,
            fault_stats: FaultStats::default(),
            down: Vec::new(),
            epochs: Vec::new(),
            faults_scheduled: false,
            clone_payload: None,
        }
    }

    /// The fault/delivery accounting accumulated so far. All-zero when no
    /// fault plan is attached, except `delivered_*`, which always counts
    /// completed deliveries.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Attaches a telemetry observer. The simulator stamps the observer's
    /// sim-time clock as the event loop advances (so journaled events carry
    /// deterministic simulated timestamps, never wall-clock) and records
    /// the `net.messages` / `net.bytes` counters for every send.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Registers the next node; returns its id (ids are assigned densely in
    /// registration order).
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Communication statistics accumulated so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Downcasts a node to its concrete type — the way experiments read a
    /// node's results after [`Self::run`] completes. Returns `None` on a
    /// type mismatch.
    pub fn node_as<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let node: &mut dyn std::any::Any = self.nodes[id.0].as_mut();
        node.downcast_mut::<T>()
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or simulated time would exceed
    /// `deadline`.
    pub(crate) fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        if let Some(need) = self.topology.size() {
            if self.nodes.len() != need {
                return Err(SimError::TopologySize { have: self.nodes.len(), need });
            }
        }
        self.down.resize(self.nodes.len(), false);
        self.epochs.resize(self.nodes.len(), 0);
        self.schedule_faults()?;

        // Start phase.
        let mut staged: Vec<(NodeId, Vec<Action<M>>)> = Vec::new();
        for idx in 0..self.nodes.len() {
            let id = NodeId(idx);
            let mut actions = Vec::new();
            {
                let mut ctx = Context { now: self.time, actions: &mut actions };
                self.nodes[idx].on_start(&mut ctx);
            }
            staged.push((id, actions));
        }
        for (id, actions) in staged {
            self.commit(id, actions)?;
        }

        // Event loop.
        while let Some(entry) = self.queue.pop() {
            if entry.time > deadline {
                // Put it back conceptually: time limit reached.
                self.queue.push(entry);
                break;
            }
            debug_assert!(entry.time >= self.time, "time went backwards");
            self.time = entry.time;
            self.obs.set_sim_time(self.time);
            type Callback<'a, M> = Box<dyn FnMut(&mut dyn Node<M>, &mut Context<'_, M>) + 'a>;
            let (node_id, mut run): (NodeId, Callback<'_, M>) =
                match entry.event {
                    SimEvent::Crash { node } => {
                        self.epochs[node.0] += 1;
                        self.down[node.0] = true;
                        self.fault_stats.crashes += 1;
                        net::on_crash(&self.obs, node.0 as u64);
                        self.nodes[node.0].on_crash();
                        continue;
                    }
                    SimEvent::Restart { node } => {
                        self.down[node.0] = false;
                        self.fault_stats.restarts += 1;
                        net::on_restart(&self.obs, node.0 as u64);
                        (node, Box::new(move |n, ctx| n.on_restart(ctx)))
                    }
                    SimEvent::Message { from, to, payload, bytes } => {
                        if to.0 < self.down.len() && self.down[to.0] {
                            // Recipient is crashed at arrival: the message
                            // is lost, exactly as a dead TCP endpoint
                            // would lose it.
                            self.fault_stats.dropped_messages += 1;
                            self.fault_stats.dropped_bytes += bytes as u64;
                            self.fault_stats.dropped_to_down_node += 1;
                            net::on_dropped(
                                &self.obs,
                                from.0 as u64,
                                to.0 as u64,
                                bytes as u64,
                                DropReason::NodeDown,
                            );
                            continue;
                        }
                        self.fault_stats.delivered_messages += 1;
                        self.fault_stats.delivered_bytes += bytes as u64;
                        let mut payload = Some(payload);
                        (
                            to,
                            Box::new(move |node, ctx| {
                                node.on_message(ctx, from, payload.take().expect("single call"))
                            }),
                        )
                    }
                    SimEvent::Timer { node, tag, epoch } => {
                        let current =
                            self.epochs.get(node.0).copied().unwrap_or(0);
                        let down = self.down.get(node.0).copied().unwrap_or(false);
                        if down || epoch != current {
                            // The node crashed after arming this timer: a
                            // restarted process has no memory of it.
                            self.fault_stats.timers_cancelled += 1;
                            continue;
                        }
                        (node, Box::new(move |n, ctx| n.on_timer(ctx, tag)))
                    }
                };
            if node_id.0 >= self.nodes.len() {
                return Err(SimError::UnknownNode(node_id));
            }
            let mut actions = Vec::new();
            {
                let mut ctx = Context { now: self.time, actions: &mut actions };
                run(self.nodes[node_id.0].as_mut(), &mut ctx);
            }
            self.commit(node_id, actions)?;
        }
        Ok(())
    }

    /// Validates and enqueues the actions a node staged during a callback.
    fn commit(&mut self, from: NodeId, actions: Vec<Action<M>>) -> Result<(), SimError> {
        for action in actions {
            match action {
                Action::Send { to, payload, bytes } => {
                    if to.0 >= self.nodes.len() {
                        return Err(SimError::UnknownNode(to));
                    }
                    if !self.topology.allows(from, to) {
                        return Err(SimError::IllegalLink { from, to });
                    }
                    self.stats.record(self.time, from, to, bytes);
                    net::on_send(&self.obs, bytes as u64);
                    // Fault decisions, drawn in a fixed order from the
                    // plan's dedicated RNG stream so runs replay exactly.
                    let mut delay = self.link.delay(bytes);
                    let mut duplicate = false;
                    if let Some(fault) = &mut self.fault {
                        let severed = fault.plan.severed(from, to, self.time).is_some();
                        let lost = !severed
                            && fault.plan.link.drop_p > 0.0
                            && fault.rng.gen_bool(fault.plan.link.drop_p);
                        if severed || lost {
                            let reason = if severed {
                                self.fault_stats.dropped_by_partition += 1;
                                DropReason::Partition
                            } else {
                                self.fault_stats.dropped_by_loss += 1;
                                DropReason::Loss
                            };
                            self.fault_stats.dropped_messages += 1;
                            self.fault_stats.dropped_bytes += bytes as u64;
                            net::on_dropped(
                                &self.obs,
                                from.0 as u64,
                                to.0 as u64,
                                bytes as u64,
                                reason,
                            );
                            continue;
                        }
                        if fault.plan.link.duplicate_p > 0.0 {
                            duplicate = fault.rng.gen_bool(fault.plan.link.duplicate_p);
                        }
                        if fault.plan.link.reorder_p > 0.0
                            && fault.plan.link.reorder_max_delay_us > 0
                            && fault.rng.gen_bool(fault.plan.link.reorder_p)
                        {
                            delay +=
                                fault.rng.gen_range(1..=fault.plan.link.reorder_max_delay_us);
                            self.fault_stats.reordered_messages += 1;
                            net::on_reordered(&self.obs);
                        }
                    }
                    let time = self.time + delay;
                    if duplicate {
                        if let Some(clone) = self.clone_payload {
                            let copy = clone(&payload);
                            self.fault_stats.duplicated_messages += 1;
                            self.fault_stats.duplicated_bytes += bytes as u64;
                            net::on_duplicated(&self.obs, from.0 as u64, to.0 as u64, bytes as u64);
                            self.seq += 1;
                            self.queue.push(QueuedEvent {
                                time,
                                seq: self.seq,
                                event: SimEvent::Message { from, to, payload: copy, bytes },
                            });
                        }
                    }
                    self.seq += 1;
                    self.queue.push(QueuedEvent {
                        time,
                        seq: self.seq,
                        event: SimEvent::Message { from, to, payload, bytes },
                    });
                }
                Action::Timer { delay, tag } => {
                    let epoch = self.epochs.get(from.0).copied().unwrap_or(0);
                    self.seq += 1;
                    self.queue.push(QueuedEvent {
                        time: self.time + delay,
                        seq: self.seq,
                        event: SimEvent::Timer { node: from, tag, epoch },
                    });
                }
            }
        }
        Ok(())
    }

    /// Validates the attached fault plan against the node table and
    /// enqueues its crash/restart events (once per simulation).
    fn schedule_faults(&mut self) -> Result<(), SimError> {
        if self.faults_scheduled {
            return Ok(());
        }
        self.faults_scheduled = true;
        let Some(fault) = &self.fault else { return Ok(()) };
        let mut crash_events = Vec::new();
        for outage in &fault.plan.outages {
            if outage.node.0 >= self.nodes.len() {
                return Err(SimError::UnknownNode(outage.node));
            }
            if outage.up_at_us <= outage.down_at_us {
                return Err(SimError::BadOutage { node: outage.node });
            }
            crash_events.push(*outage);
        }
        for p in &fault.plan.partitions {
            for end in [p.a, p.b] {
                if end.0 >= self.nodes.len() {
                    return Err(SimError::UnknownNode(end));
                }
            }
            if self.obs.enabled() {
                // Declared up front: the window itself is in the fields.
                self.obs.event(&ObsEvent::Partitioned {
                    a: p.a.0 as u64,
                    b: p.b.0 as u64,
                    from_us: p.from_us,
                    until_us: p.until_us,
                });
            }
        }
        for outage in crash_events {
            self.seq += 1;
            self.queue.push(QueuedEvent {
                time: outage.down_at_us,
                seq: self.seq,
                event: SimEvent::Crash { node: outage.node },
            });
            self.seq += 1;
            self.queue.push(QueuedEvent {
                time: outage.up_at_us,
                seq: self.seq,
                event: SimEvent::Restart { node: outage.node },
            });
        }
        Ok(())
    }
}

impl<M: Clone + 'static> Simulation<M> {
    /// Attaches a deterministic fault plan. Requires `M: Clone` so the
    /// fault layer can inject duplicate deliveries. Attach before
    /// [`Simulation::run`]; replacing the plan mid-run is not supported
    /// (the outage schedule is enqueued once, at the first run).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let rng = StdRng::seed_from_u64(plan.seed);
        self.fault = Some(FaultCtl { plan, rng });
        self.clone_payload = Some(|payload| payload.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero latency, infinite bandwidth.
    const INSTANT: LinkModel = LinkModel { latency_us: 0, bandwidth_bps: 0 };

    /// Counts messages and echoes until a budget is exhausted.
    struct Echoer {
        remaining: u32,
        received: u32,
    }

    impl Node<u32> for Echoer {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.received += 1;
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, msg + 1, 8);
            }
        }
    }

    /// Kicks off the ping-pong.
    struct Kicker;
    impl Node<u32> for Kicker {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.send(NodeId(1), 0, 8);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            if msg < 10 {
                ctx.send(from, msg + 1, 8);
            }
        }
    }

    #[test]
    fn ping_pong_terminates_with_counts() {
        let mut sim: Simulation<u32> = Simulation::new(Topology::star(1), INSTANT);
        sim.add_node(Box::new(Kicker));
        sim.add_node(Box::new(Echoer { remaining: 100, received: 0 }));
        sim.run().unwrap();
        // Kicker sends 0, echoer replies 1, ..., kicker sends 10, echoer
        // replies 11, kicker stops (11 >= 10) → messages 0..=11 → 12 total.
        assert_eq!(sim.stats().total_messages(), 12);
        assert_eq!(sim.stats().total_bytes(), 96);
    }

    #[test]
    fn illegal_link_rejected() {
        struct BadSender;
        impl Node<u32> for BadSender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(NodeId(1), 0, 1); // spoke → spoke in a star
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
        }
        struct Sink;
        impl Node<u32> for Sink {
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
        }
        let mut sim: Simulation<u32> = Simulation::new(Topology::star(2), INSTANT);
        sim.add_node(Box::new(BadSender));
        sim.add_node(Box::new(Sink));
        sim.add_node(Box::new(Sink));
        assert_eq!(
            sim.run(),
            Err(SimError::IllegalLink { from: NodeId(0), to: NodeId(1) })
        );
    }

    #[test]
    fn topology_size_enforced() {
        let mut sim: Simulation<u32> = Simulation::new(Topology::star(3), INSTANT);
        sim.add_node(Box::new(Kicker));
        assert_eq!(sim.run(), Err(SimError::TopologySize { have: 1, need: 4 }));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<()> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
                self.fired.push(tag);
                self.fired.push(ctx.now());
            }
        }
        let mut sim: Simulation<()> = Simulation::new(Topology::Complete, INSTANT);
        let id = sim.add_node(Box::new(TimerNode { fired: vec![] }));
        sim.run().unwrap();
        let node: &mut TimerNode = sim.node_as(id).expect("concrete type");
        assert_eq!(node.fired, vec![1, 100, 2, 200, 3, 300]);
    }

    #[test]
    fn link_delay_advances_clock() {
        struct Once {
            sender: bool,
        }
        impl Node<u32> for Once {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if self.sender {
                    ctx.send(NodeId(1), 0, 1000);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: NodeId, _: u32) {
                assert_eq!(ctx.now(), 1100);
            }
        }
        let link = LinkModel { latency_us: 100, bandwidth_bps: 1_000_000 };
        let mut sim: Simulation<u32> = Simulation::new(Topology::star(1), link);
        sim.add_node(Box::new(Once { sender: true }));
        sim.add_node(Box::new(Once { sender: false }));
        sim.run().unwrap();
        assert_eq!(sim.now(), 1100);
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Periodic;
        impl Node<()> for Periodic {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(1_000, 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _: u64) {
                ctx.set_timer(1_000, 0); // forever
            }
        }
        let mut sim: Simulation<()> = Simulation::new(Topology::Complete, INSTANT);
        sim.add_node(Box::new(Periodic));
        sim.run_until(100_000).unwrap();
        assert!(sim.now() <= 100_000);
    }

    #[test]
    fn unknown_recipient_rejected() {
        struct Wild;
        impl Node<()> for Wild {
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.send(NodeId(42), (), 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        }
        let mut sim: Simulation<()> = Simulation::new(Topology::Complete, INSTANT);
        sim.add_node(Box::new(Wild));
        assert_eq!(sim.run(), Err(SimError::UnknownNode(NodeId(42))));
    }

    // ---- fault injection ----

    use crate::faults::{FaultPlan, LinkFaults};

    /// Sends `count` 8-byte messages to the hub, one per millisecond.
    struct Blaster {
        count: u32,
    }
    impl Node<u32> for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(1_000, 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: u64) {
            if self.count > 0 {
                self.count -= 1;
                ctx.send(NodeId(1), self.count, 8);
                ctx.set_timer(1_000, 0);
            }
        }
    }

    /// Counts deliveries.
    struct Sink {
        received: u32,
    }
    impl Node<u32> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {
            self.received += 1;
        }
    }

    fn lossy_run(plan: FaultPlan) -> (u32, FaultStats) {
        let mut sim: Simulation<u32> = Simulation::new(Topology::star(1), INSTANT);
        sim.add_node(Box::new(Blaster { count: 200 }));
        let hub = sim.add_node(Box::new(Sink { received: 0 }));
        sim.set_fault_plan(plan);
        sim.run().unwrap();
        let stats = *sim.fault_stats();
        let sink: &mut Sink = sim.node_as(hub).expect("concrete type");
        (sink.received, stats)
    }

    #[test]
    fn random_loss_is_deterministic_and_conserves_messages() {
        let plan = FaultPlan::seeded(42)
            .with_link(LinkFaults { drop_p: 0.25, ..Default::default() });
        let (recv_a, stats_a) = lossy_run(plan.clone());
        let (recv_b, stats_b) = lossy_run(plan);
        assert_eq!(recv_a, recv_b, "same plan must replay identically");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped_by_loss > 0, "25% loss over 200 sends");
        assert!(recv_a < 200);
        // Conservation: every send is delivered or dropped.
        assert_eq!(
            stats_a.delivered_messages + stats_a.dropped_messages,
            200 + stats_a.duplicated_messages
        );
        assert_eq!(u64::from(recv_a), stats_a.delivered_messages);
    }

    #[test]
    fn duplicates_are_injected_and_counted() {
        let plan = FaultPlan::seeded(7)
            .with_link(LinkFaults { duplicate_p: 0.5, ..Default::default() });
        let (received, stats) = lossy_run(plan);
        assert!(stats.duplicated_messages > 0);
        assert_eq!(u64::from(received), 200 + stats.duplicated_messages);
        assert_eq!(stats.dropped_messages, 0);
    }

    #[test]
    fn partition_window_drops_only_inside_it() {
        // Sends happen at t = 1ms, 2ms, ..., 200ms. Cut [50ms, 100ms).
        let plan = FaultPlan::seeded(3).with_partition(NodeId(0), NodeId(1), 50_000, 100_000);
        let (received, stats) = lossy_run(plan);
        assert_eq!(stats.dropped_by_partition, 50);
        assert_eq!(received, 150);
    }

    #[test]
    fn reorder_jitter_lets_later_sends_overtake() {
        struct OrderSink {
            seen: Vec<u32>,
        }
        impl Node<u32> for OrderSink {
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, msg: u32) {
                self.seen.push(msg);
            }
        }
        struct Burst;
        impl Node<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(1, 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
                ctx.send(NodeId(1), tag as u32, 8);
                if tag < 63 {
                    ctx.set_timer(1, tag + 1);
                }
            }
        }
        let plan = FaultPlan::seeded(11).with_link(LinkFaults {
            reorder_p: 0.5,
            reorder_max_delay_us: 500,
            ..Default::default()
        });
        let mut sim: Simulation<u32> = Simulation::new(Topology::star(1), INSTANT);
        sim.add_node(Box::new(Burst));
        let hub = sim.add_node(Box::new(OrderSink { seen: vec![] }));
        sim.set_fault_plan(plan);
        sim.run().unwrap();
        assert!(sim.fault_stats().reordered_messages > 0);
        let sink: &mut OrderSink = sim.node_as(hub).expect("concrete type");
        assert_eq!(sink.seen.len(), 64, "reordering never loses messages");
        let mut sorted = sink.seen.clone();
        sorted.sort_unstable();
        assert_ne!(sink.seen, sorted, "some message overtook an earlier one");
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn crash_cancels_timers_and_restart_hook_runs() {
        struct Phoenix {
            ticks: u32,
            crashes_seen: u32,
            restarts_seen: u32,
        }
        impl Node<u32> for Phoenix {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(1_000, 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: u64) {
                self.ticks += 1;
                ctx.set_timer(1_000, 0);
            }
            fn on_crash(&mut self) {
                self.crashes_seen += 1;
            }
            fn on_restart(&mut self, ctx: &mut Context<'_, u32>) {
                self.restarts_seen += 1;
                ctx.set_timer(1_000, 0); // re-arm after resurrection
            }
        }
        let plan = FaultPlan::seeded(0).with_outage(NodeId(0), 10_500, 20_500);
        let mut sim: Simulation<u32> = Simulation::new(Topology::Complete, INSTANT);
        let id = sim.add_node(Box::new(Phoenix { ticks: 0, crashes_seen: 0, restarts_seen: 0 }));
        sim.set_fault_plan(plan);
        sim.run_until(30_000).unwrap();
        let stats = *sim.fault_stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.timers_cancelled, 1, "the in-flight pre-crash timer");
        let node: &mut Phoenix = sim.node_as(id).expect("concrete type");
        assert_eq!(node.crashes_seen, 1);
        assert_eq!(node.restarts_seen, 1);
        // 10 ticks before the crash (1ms..10ms), none while down, then
        // ticks resume at 21.5ms through 30ms → 9 more.
        assert_eq!(node.ticks, 19);
    }

    #[test]
    fn messages_to_down_node_are_dropped() {
        let plan = FaultPlan::seeded(0).with_outage(NodeId(1), 50_500, 100_500);
        let (received, stats) = lossy_run(plan);
        assert_eq!(stats.dropped_to_down_node, 50);
        assert_eq!(received, 150);
    }

    #[test]
    fn bad_outage_rejected() {
        let plan = FaultPlan::seeded(0).with_outage(NodeId(0), 100, 100);
        let mut sim: Simulation<u32> = Simulation::new(Topology::Complete, INSTANT);
        sim.add_node(Box::new(Blaster { count: 0 }));
        sim.set_fault_plan(plan);
        assert_eq!(sim.run(), Err(SimError::BadOutage { node: NodeId(0) }));
    }

    #[test]
    fn outage_for_unknown_node_rejected() {
        let plan = FaultPlan::seeded(0).with_outage(NodeId(9), 100, 200);
        let mut sim: Simulation<u32> = Simulation::new(Topology::Complete, INSTANT);
        sim.add_node(Box::new(Blaster { count: 0 }));
        sim.set_fault_plan(plan);
        assert_eq!(sim.run(), Err(SimError::UnknownNode(NodeId(9))));
    }
}
