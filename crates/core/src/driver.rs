//! Run driver: wires remote sites and the coordinator into a star
//! topology, reproducing the paper's experimental setup (r remote sites
//! around one coordinator, records arriving at a fixed rate,
//! communication cost collected per second).
//!
//! The entry point is the [`Simulation`] builder. By default runs execute
//! on the deterministic discrete-event transport
//! ([`crate::SimnetTransport`]); transport-specific knobs — fault plans,
//! socket heartbeats — live on the transport value, not here:
//!
//! ```no_run
//! use cludistream::{Simulation, SimnetTransport, WindowSpec};
//! use cludistream_simnet::{FaultPlan, LinkFaults};
//!
//! # let streams = Vec::new();
//! let report = Simulation::star(4)
//!     .with_window(WindowSpec::Sliding { chunks: 8 })
//!     .with_transport(Box::new(SimnetTransport::new().with_faults(
//!         FaultPlan::seeded(7).with_link(LinkFaults { drop_p: 0.1, ..Default::default() }),
//!     )))
//!     .with_streams(streams)
//!     .with_updates_per_site(10_000)
//!     .run()?;
//! assert!(report.delivery.balanced());
//! # Ok::<(), cludistream::CludiError>(())
//! ```
//!
//! Attaching a fault plan to the simnet transport automatically switches
//! the wire protocol to reliable delivery (sequence numbers, coordinator
//! ACKs, retransmit with exponential backoff — see [`crate::protocol`]);
//! fault-free simnet runs default to fire-and-forget and pay zero
//! protocol overhead. The TCP transport ([`crate::runtime::TcpTransport`])
//! is reliable-only.

use crate::aggregator::{AggregatorConfig, AggregatorEngine};
use crate::config::Config;
use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::engine::{CoordinatorEngine, SiteCore, UpChannel};
use crate::error::CludiError;
use crate::protocol::{Frame, ReliableInbox};
use crate::remote::SiteStats;
use crate::serving::SnapshotHandle;
use crate::transport::{RunRecipe, SimnetTransport, Transport, TreeTopology};
use crate::windows::WindowSpec;
use cludistream_gmm::Mixture;
use cludistream_linalg::Vector;
use cludistream_obs::Obs;
use cludistream_simnet::{
    CommStats, Context, FaultPlan, FaultStats, LinkModel, Node, NodeId,
    Simulation as NetSimulation, Topology, MICROS_PER_SEC,
};
use cludistream_wire::ByteBuf;
use std::sync::Arc;

/// A boxed record stream feeding one site. `Send` so the socket transport
/// can move each site's stream into its own thread.
pub type RecordStream = Box<dyn Iterator<Item = Vector> + Send>;

/// Driver parameters (transport-agnostic; fault plans live on
/// [`SimnetTransport`]).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Remote-site configuration.
    pub site: Config,
    /// Coordinator configuration.
    pub coordinator: CoordinatorConfig,
    /// Record arrival rate per site (records per simulated second; the
    /// paper processes about 1000 updates/second).
    pub records_per_second: u64,
    /// Records pulled from the stream per timer tick.
    pub batch: usize,
    /// Telemetry observer, threaded through the sites, the coordinator and
    /// the transport. Defaults to a no-op recorder.
    pub obs: Obs,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            site: Config::default(),
            coordinator: CoordinatorConfig::default(),
            records_per_second: 1000,
            batch: 100,
            obs: Obs::noop(),
        }
    }
}

/// How synopses travel from sites to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Bare messages, no acknowledgements. Correct on a fault-free
    /// network and byte-identical to the legacy protocol.
    FireAndForget,
    /// Sequence numbers, cumulative ACKs and retransmission with
    /// exponential backoff (see [`crate::protocol::ReliableSender`]).
    Reliable,
}

/// How a run delivers its synopses. The reliable protocol's
/// retransmission timeout is fixed: 50 ms at first, doubling on each
/// retry up to 1 s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Delivery mode.
    pub mode: DeliveryMode,
}

impl Default for DeliveryConfig {
    fn default() -> Self {
        DeliveryConfig { mode: DeliveryMode::FireAndForget }
    }
}

/// Byte-accurate accounting of what happened on the wire: every message
/// the sites and coordinator sent is either delivered or dropped, and
/// retransmissions/ACKs are broken out so the protocol overhead of a
/// lossy run is measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Whether the reliable protocol was active.
    pub reliable: bool,
    /// Messages put on the wire (sites + coordinator, including
    /// retransmissions and ACKs).
    pub sent_messages: u64,
    /// Bytes put on the wire.
    pub sent_bytes: u64,
    /// Messages handed to a recipient.
    pub delivered_messages: u64,
    /// Bytes handed to recipients.
    pub delivered_bytes: u64,
    /// Messages lost to faults (random loss, partitions, down nodes).
    pub dropped_messages: u64,
    /// Bytes lost to faults.
    pub dropped_bytes: u64,
    /// Extra copies injected by the fault layer.
    pub duplicated_messages: u64,
    /// Bytes of injected duplicates.
    pub duplicated_bytes: u64,
    /// Messages given reorder jitter by the fault layer.
    pub reordered_messages: u64,
    /// Data frames retransmitted by site senders.
    pub retransmitted_messages: u64,
    /// Bytes of retransmitted data frames.
    pub retransmitted_bytes: u64,
    /// ACK frames the coordinator sent.
    pub ack_messages: u64,
    /// Bytes of ACK frames.
    pub ack_bytes: u64,
    /// Duplicate or stale data frames the coordinator discarded.
    pub duplicates_discarded: u64,
    /// Site crashes executed by the fault plan.
    pub crashes: u64,
    /// Site restarts executed by the fault plan.
    pub restarts: u64,
}

impl DeliveryReport {
    /// The conservation invariant: once the simulation drains, every
    /// message (and byte) put on the wire — plus fault-layer duplicates —
    /// was either delivered or dropped. Nothing vanishes silently.
    pub fn balanced(&self) -> bool {
        self.sent_messages + self.duplicated_messages
            == self.delivered_messages + self.dropped_messages
            && self.sent_bytes + self.duplicated_bytes
                == self.delivered_bytes + self.dropped_bytes
    }
}

/// Outcome of a star-topology run.
#[derive(Debug)]
pub struct StarReport {
    /// Byte-accurate communication statistics.
    pub comm: CommStats,
    /// Delivered / dropped / retransmitted accounting (see
    /// [`DeliveryReport::balanced`]).
    pub delivery: DeliveryReport,
    /// The coordinator's global mixture at the end of the run (None when no
    /// site ever reported a model).
    pub global: Option<Mixture>,
    /// Per-site processing statistics.
    pub site_stats: Vec<SiteStats>,
    /// Models per site at the end of the run.
    pub site_models: Vec<usize>,
    /// Per-site memory (Theorem 3 accounting), bytes.
    pub site_memory: Vec<usize>,
    /// Coordinator group count.
    pub coordinator_groups: usize,
    /// Coordinator memory, bytes.
    pub coordinator_memory: usize,
    /// Bytes delivered *to* the root coordinator — its ingress load. In a
    /// star every synopsis lands here; with an aggregator tier
    /// ([`TreeTopology`]) only the reduced per-aggregator updates do, so
    /// this is the number the swarm benchmark compares across topologies.
    pub bytes_at_root: u64,
    /// Simulated (or, for the socket transport, wall-clock) duration in
    /// seconds.
    pub sim_seconds: f64,
}

/// Timer tag: pull the next batch from the stream.
const TIMER_TICK: u64 = 0;
/// Timer tag: retransmit unacknowledged frames.
const TIMER_RETX: u64 = 1;
/// Timer tag: an aggregator's dirty-to-flush delay elapsed.
const TIMER_FLUSH: u64 = 2;

/// The `send` closure of a simulated node: every frame goes to `to`.
fn send_to<'c, 'sim>(
    to: NodeId,
    ctx: &'c mut Context<'sim, ByteBuf>,
) -> impl FnMut(ByteBuf) + use<'c, 'sim> {
    move |bytes| {
        let len = bytes.len();
        ctx.send(to, bytes, len);
    }
}

/// Arms the go-back-N timer of `up` when frames are pending and it is not
/// armed already.
fn arm_retransmit(up: &UpChannel, armed: &mut bool, ctx: &mut Context<'_, ByteBuf>) {
    if !*armed && up.pending() > 0 {
        ctx.set_timer(up.next_timeout_us(), TIMER_RETX);
        *armed = true;
    }
}

/// The `TIMER_RETX` arm of every node with an upward channel: re-send the
/// unacknowledged queue to `parent`, then re-arm with the backed-off RTO.
fn on_retransmit_timer(
    up: &mut UpChannel,
    armed: &mut bool,
    parent: NodeId,
    ctx: &mut Context<'_, ByteBuf>,
) {
    *armed = false;
    up.retransmit(&mut send_to(parent, ctx));
    arm_retransmit(up, armed, ctx);
}

/// Simulation node wrapping one windowed remote site and its stream.
///
/// One node type serves every window kind (`Box<dyn Window>`) and both
/// delivery modes; under a fault plan with outages it keeps a durable
/// checkpoint each tick and resyncs from it in `on_restart`. The protocol
/// logic lives in the shared [`SiteCore`]; this wrapper adds only the
/// simulator plumbing (timers, stream pacing, checkpoints).
struct SiteNode {
    core: SiteCore,
    stream: RecordStream,
    coordinator: NodeId,
    remaining: u64,
    batch: usize,
    interval_us: u64,
    error: Option<CludiError>,
    retx_armed: bool,
    /// Durable state written each tick when the fault plan can crash this
    /// node; everything else is volatile and lost on crash.
    checkpoint: Option<ByteBuf>,
    checkpointing: bool,
}

impl SiteNode {
    fn tick(&mut self, ctx: &mut Context<'_, ByteBuf>) {
        if self.error.is_some() {
            return;
        }
        let take = (self.batch as u64).min(self.remaining) as usize;
        for _ in 0..take {
            let Some(record) = self.stream.next() else {
                self.remaining = 0;
                break;
            };
            if let Err(e) = self.core.window.push(record) {
                self.error = Some(e);
                return;
            }
            self.remaining -= 1;
        }
        self.core.drain_outbound(&mut send_to(self.coordinator, ctx));
        arm_retransmit(&self.core.up, &mut self.retx_armed, ctx);
        if self.remaining > 0 {
            ctx.set_timer(self.interval_us, TIMER_TICK);
        }
        if self.checkpointing {
            self.checkpoint = Some(self.make_checkpoint());
        }
    }

    /// Serializes the durable state: stream position, sender queue, and
    /// the full window (site, ledger, undrained events).
    fn make_checkpoint(&self) -> ByteBuf {
        let mut buf = ByteBuf::new();
        buf.put_u64_le(self.remaining);
        self.core.up.snapshot(&mut buf);
        buf.extend_from_slice(&self.core.window.snapshot());
        buf
    }

    fn restore_checkpoint(&mut self, checkpoint: &ByteBuf) -> Result<(), CludiError> {
        let mut reader = checkpoint.reader();
        self.remaining =
            reader.get_u64_le().map_err(|_| CludiError::Decode("truncated node checkpoint"))?;
        self.core.up.restore(&mut reader)?;
        self.core.window.restore_from(&mut reader)?;
        // The restored site lost its observer wiring; re-attach.
        self.core.window.set_observer(self.core.up.obs.clone(), self.core.up.index);
        Ok(())
    }
}

impl Node<ByteBuf> for SiteNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ByteBuf>) {
        if self.checkpointing {
            // Eager first checkpoint so a crash before the first tick
            // still restores a coherent (empty) state.
            self.checkpoint = Some(self.make_checkpoint());
        }
        if self.remaining > 0 {
            ctx.set_timer(self.interval_us, TIMER_TICK);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ByteBuf>, _from: NodeId, msg: ByteBuf) {
        // The only coordinator→site traffic is cumulative ACKs.
        if let Ok(Frame::Ack { cumulative }) = Frame::decode(&mut msg.reader()) {
            self.core.up.on_ack(cumulative);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ByteBuf>, tag: u64) {
        match tag {
            TIMER_TICK => self.tick(ctx),
            TIMER_RETX => {
                on_retransmit_timer(&mut self.core.up, &mut self.retx_armed, self.coordinator, ctx);
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, ByteBuf>) {
        if let Some(checkpoint) = self.checkpoint.take() {
            if let Err(e) = self.restore_checkpoint(&checkpoint) {
                self.error = Some(e);
                return;
            }
            self.checkpoint = Some(checkpoint);
        }
        self.retx_armed = false;
        arm_retransmit(&self.core.up, &mut self.retx_armed, ctx);
        if self.remaining > 0 {
            ctx.set_timer(self.interval_us, TIMER_TICK);
        }
    }
}

/// Simulation node wrapping the shared [`CoordinatorEngine`].
struct CoordinatorNode {
    engine: CoordinatorEngine,
}

impl Node<ByteBuf> for CoordinatorNode {
    fn on_message(&mut self, ctx: &mut Context<'_, ByteBuf>, from: NodeId, msg: ByteBuf) {
        if let Some(ack) = self.engine.on_wire(&msg) {
            let len = ack.len();
            ctx.send(from, ack, len);
        }
    }
}

/// Simulation node wrapping one [`AggregatorEngine`]: coordinator-like
/// toward its children (below), site-like toward its parent (above).
/// Child traffic marks it dirty and arms a flush timer; when the timer
/// fires, the one reduced update goes upward through the same
/// [`UpChannel`] a site sends through.
struct AggregatorNode {
    agg: AggregatorEngine,
    parent: NodeId,
    up: UpChannel,
    flush_interval_us: u64,
    flush_armed: bool,
    retx_armed: bool,
}

impl AggregatorNode {
    fn arm_flush(&mut self, ctx: &mut Context<'_, ByteBuf>) {
        if !self.flush_armed && self.agg.dirty() {
            ctx.set_timer(self.flush_interval_us, TIMER_FLUSH);
            self.flush_armed = true;
        }
    }
}

impl Node<ByteBuf> for AggregatorNode {
    fn on_message(&mut self, ctx: &mut Context<'_, ByteBuf>, from: NodeId, msg: ByteBuf) {
        if from == self.parent {
            // The only parent→aggregator traffic is cumulative ACKs.
            if let Ok(Frame::Ack { cumulative }) = Frame::decode(&mut msg.reader()) {
                self.up.on_ack(cumulative);
            }
            return;
        }
        if let Some(ack) = self.agg.on_wire(&msg) {
            let len = ack.len();
            ctx.send(from, ack, len);
        }
        self.arm_flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ByteBuf>, tag: u64) {
        match tag {
            TIMER_FLUSH => {
                self.flush_armed = false;
                if let Some(msg) = self.agg.flush() {
                    self.up.send(msg, &mut send_to(self.parent, ctx));
                    arm_retransmit(&self.up, &mut self.retx_armed, ctx);
                }
            }
            TIMER_RETX => {
                on_retransmit_timer(&mut self.up, &mut self.retx_armed, self.parent, ctx);
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, ByteBuf>) {
        // Aggregators keep no durable checkpoint: their whole state is
        // reconstructible from child retransmissions, so a restart just
        // re-arms the timers.
        self.retx_armed = false;
        self.flush_armed = false;
        arm_retransmit(&self.up, &mut self.retx_armed, ctx);
        self.arm_flush(ctx);
    }
}

/// Builder for a CluDistream star-topology run: `r` remote sites around
/// one coordinator, each consuming records from its own stream under a
/// chosen window semantics, over a pluggable [`Transport`] (the
/// deterministic simulator by default).
///
/// ```no_run
/// # use cludistream::{Simulation, WindowSpec};
/// # let streams = Vec::new();
/// let report = Simulation::star(2)
///     .with_window(WindowSpec::Landmark)
///     .with_streams(streams)
///     .with_updates_per_site(5_000)
///     .run()?;
/// # Ok::<(), cludistream::CludiError>(())
/// ```
pub struct Simulation {
    sites: usize,
    window: WindowSpec,
    config: DriverConfig,
    transport: Option<Box<dyn Transport>>,
    delivery: Option<DeliveryConfig>,
    streams: Option<Vec<RecordStream>>,
    updates_per_site: u64,
    snapshots: Option<Arc<SnapshotHandle>>,
    tree: Option<TreeTopology>,
}

impl Simulation {
    /// A star of `sites` remote sites around one coordinator, with
    /// landmark windows and default parameters.
    pub fn star(sites: usize) -> Simulation {
        Simulation {
            sites,
            window: WindowSpec::Landmark,
            config: DriverConfig::default(),
            transport: None,
            delivery: None,
            streams: None,
            updates_per_site: 0,
            snapshots: None,
            tree: None,
        }
    }

    /// Replaces the whole driver configuration.
    pub fn with_driver_config(mut self, config: DriverConfig) -> Simulation {
        self.config = config;
        self
    }

    /// Sets the window semantics every site runs under.
    pub fn with_window(mut self, window: WindowSpec) -> Simulation {
        self.window = window;
        self
    }

    /// Selects the transport (default: a fault-free [`SimnetTransport`]).
    /// Transport-specific knobs — fault plans, socket addresses and
    /// heartbeats — are configured on the transport value.
    pub fn with_transport(mut self, transport: Box<dyn Transport>) -> Simulation {
        self.transport = Some(transport);
        self
    }

    /// Overrides the delivery mode/tuning (default: the transport's
    /// choice — simnet picks fire-and-forget unless faults are attached;
    /// TCP is reliable-only).
    pub fn with_reliability(mut self, delivery: DeliveryConfig) -> Simulation {
        self.delivery = Some(delivery);
        self
    }

    /// Attaches the record streams, one per site.
    pub fn with_streams(mut self, streams: Vec<RecordStream>) -> Simulation {
        self.streams = Some(streams);
        self
    }

    /// Sets how many records each site consumes.
    pub fn with_updates_per_site(mut self, updates_per_site: u64) -> Simulation {
        self.updates_per_site = updates_per_site;
        self
    }

    /// Attaches a serving-layer [`SnapshotHandle`]: the coordinator
    /// publishes an immutable [`crate::ModelSnapshot`] into it after
    /// every applied message, so reader threads can score records
    /// lock-free while the round advances. Off by default — without a
    /// handle the write path is byte-identical to earlier releases.
    pub fn with_snapshots(mut self, handle: Arc<SnapshotHandle>) -> Simulation {
        self.snapshots = Some(handle);
        self
    }

    /// Inserts an aggregator tier ([`TreeTopology`]) between the sites
    /// and the root coordinator: each aggregator terminates a contiguous
    /// fan-in of children, pre-merges their synopses, and forwards one
    /// reduced update per flush interval. Off by default — without a tree
    /// the run is the classic star.
    pub fn with_tree(mut self, tree: TreeTopology) -> Simulation {
        self.tree = Some(tree);
        self
    }

    /// Validates the recipe and runs it on the configured transport.
    pub fn run(self) -> Result<StarReport, CludiError> {
        let Simulation {
            sites,
            window,
            config,
            transport,
            delivery,
            streams,
            updates_per_site,
            snapshots,
            tree,
        } = self;
        if sites == 0 {
            return Err(CludiError::Build("need at least one site"));
        }
        let Some(streams) = streams else {
            return Err(CludiError::Build("no streams attached; call with_streams"));
        };
        if streams.len() != sites {
            return Err(CludiError::Build("stream count must equal the site count"));
        }
        if config.records_per_second == 0 {
            return Err(CludiError::InvalidConfig {
                name: "records_per_second",
                constraint: "rate > 0",
            });
        }
        if config.batch == 0 {
            return Err(CludiError::InvalidConfig { name: "batch", constraint: "batch > 0" });
        }
        if let Some(tree) = &tree {
            if tree.levels.is_empty() {
                return Err(CludiError::InvalidConfig {
                    name: "tree.levels",
                    constraint: "at least one aggregator level",
                });
            }
            tree.validate(sites)?;
        }
        let transport = transport.unwrap_or_else(|| Box::new(SimnetTransport::new()));
        transport.run(RunRecipe {
            sites,
            window,
            config,
            delivery,
            streams,
            updates_per_site,
            snapshots,
            tree,
        })
    }
}

/// Builds one [`SiteCore`] for site `i` of a recipe: window construction,
/// per-site seed decorrelation, observer wiring, and the upward channel
/// (reliable when `delivery.mode` says so). Shared by the simnet driver and
/// the socket runtime so both transports stamp out *identical* site state.
pub(crate) fn build_site_core(
    recipe_config: &DriverConfig,
    window: WindowSpec,
    i: usize,
    delivery: DeliveryConfig,
) -> Result<SiteCore, CludiError> {
    let mut site_config = recipe_config.site.clone();
    // De-correlate EM initialization across sites.
    site_config.seed = site_config.seed.wrapping_add(i as u64 * 7919);
    let cov = site_config.covariance;
    let mut win = window.build(site_config)?;
    win.set_observer(recipe_config.obs.clone(), i as u32);
    Ok(SiteCore {
        window: win,
        up: UpChannel::new(i as u32, cov, recipe_config.obs.clone(), delivery),
        synopsis_bytes: 0,
    })
}

/// Runs a recipe on the discrete-event simulator (the [`SimnetTransport`]
/// implementation): sites feed level-0 aggregators, each level feeds the
/// next, and the root coordinator terminates the top level. A star is the
/// tree with no levels — every site reports straight to the root. Child
/// ranges are split evenly and contiguously; within a level, aggregator
/// `j` is site `j` to its parent.
pub(crate) fn run_simnet(
    recipe: RunRecipe,
    faults: Option<FaultPlan>,
) -> Result<StarReport, CludiError> {
    let RunRecipe { sites, window, config, delivery, streams, updates_per_site, snapshots, tree } =
        recipe;
    // No tree is the tree with no levels; its flush tuning is never read.
    let tree =
        tree.unwrap_or(TreeTopology { levels: Vec::new(), epsilon: 0.0, flush_interval_us: 1 });
    tree.validate(sites)?;
    let delivery = delivery.unwrap_or_else(|| DeliveryConfig {
        mode: if faults.is_some() { DeliveryMode::Reliable } else { DeliveryMode::FireAndForget },
    });
    // Durable checkpoints only matter when the plan can crash a site.
    let checkpointing = faults.as_ref().is_some_and(|p| !p.outages.is_empty());

    // Node layout: sites first (ids 0..sites), then each aggregator level
    // in order, then the root last — matching `add_node`'s sequential ids.
    // Every node not claimed by an aggregator reports to the root.
    let total_aggs: usize = tree.levels.iter().sum();
    let root_id = NodeId(sites + total_aggs);
    let mut parent = vec![root_id.0; sites + total_aggs + 1];
    // (level-local index, child_base, children) per aggregator, in id order.
    let mut agg_specs: Vec<(u32, u32, usize)> = Vec::with_capacity(total_aggs);
    let mut feeding = sites; // width of the level below
    let mut level_start = sites; // first node id of the current level
    for &count in &tree.levels {
        for j in 0..count {
            // Even contiguous split of the `feeding` children below.
            let start = j * feeding / count;
            let end = (j + 1) * feeding / count;
            let below_start = level_start - feeding;
            for child in start..end {
                parent[below_start + child] = level_start + j;
            }
            agg_specs.push((j as u32, start as u32, end - start));
        }
        level_start += count;
        feeding = count;
    }

    let mut sim: NetSimulation<ByteBuf> =
        NetSimulation::new(Topology::Tree { parent: parent.clone() }, LinkModel::default());
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let interval_us = ((config.batch as u64 * MICROS_PER_SEC) / config.records_per_second).max(1);

    let mut site_ids = Vec::with_capacity(sites);
    for (i, stream) in streams.into_iter().enumerate() {
        let core = build_site_core(&config, window, i, delivery)?;
        let id = sim.add_node(Box::new(SiteNode {
            core,
            stream,
            coordinator: NodeId(parent[i]),
            remaining: updates_per_site,
            batch: config.batch,
            interval_us,
            error: None,
            retx_armed: false,
            checkpoint: None,
            checkpointing,
        }));
        site_ids.push(id);
    }
    let mut agg_ids = Vec::with_capacity(total_aggs);
    for (index, child_base, children) in agg_specs {
        // Shards are where O(history) growth must stop: cap their merge
        // logs even when the root keeps unbounded lineage.
        let shard = CoordinatorConfig {
            merge_log_cap: config.coordinator.merge_log_cap.or(Some(64)),
            ..config.coordinator.clone()
        };
        let agg = AggregatorEngine::new(
            AggregatorConfig {
                index,
                child_base,
                children,
                epsilon: tree.epsilon,
                coordinator: shard,
            },
            config.obs.clone(),
        )?;
        let id = sim.add_node(Box::new(AggregatorNode {
            agg,
            parent: NodeId(parent[agg_ids.len() + sites]),
            up: UpChannel::new(index, config.site.covariance, config.obs.clone(), delivery),
            flush_interval_us: tree.flush_interval_us,
            flush_armed: false,
            retx_armed: false,
        }));
        agg_ids.push(id);
    }
    let mut coordinator = Coordinator::new(config.coordinator.clone())?;
    coordinator.set_observer(config.obs.clone());
    // `feeding` is now the width of the level the root terminates.
    let mut engine =
        CoordinatorEngine::new(coordinator, feeding, config.site.covariance, config.obs.clone());
    engine.publish = snapshots;
    sim.add_node(Box::new(CoordinatorNode { engine }));
    sim.set_observer(config.obs.clone());

    sim.run()?;

    // Harvest.
    let fault_stats: FaultStats = *sim.fault_stats();
    let mut site_stats = Vec::with_capacity(sites);
    let mut site_models = Vec::with_capacity(sites);
    let mut site_memory = Vec::with_capacity(sites);
    let mut retransmitted_messages = 0;
    let mut retransmitted_bytes = 0;
    for &id in &site_ids {
        let node: &mut SiteNode = sim.node_as(id).expect("site node");
        if let Some(e) = node.error.take() {
            return Err(e);
        }
        site_stats.push(node.core.window.site().stats());
        site_models.push(node.core.window.site().models().len());
        site_memory.push(node.core.window.site().memory_bytes());
        retransmitted_messages += node.core.up.retransmitted_messages;
        retransmitted_bytes += node.core.up.retransmitted_bytes;
    }
    let mut ack_messages = 0;
    let mut ack_bytes = 0;
    let mut duplicates_discarded = 0;
    for &id in &agg_ids {
        let node: &mut AggregatorNode = sim.node_as(id).expect("aggregator node");
        retransmitted_messages += node.up.retransmitted_messages;
        retransmitted_bytes += node.up.retransmitted_bytes;
        ack_messages += node.agg.ack_messages();
        ack_bytes += node.agg.ack_bytes();
        duplicates_discarded += node.agg.duplicates_discarded();
    }
    let sim_seconds = sim.now() as f64 / MICROS_PER_SEC as f64;
    let comm = sim.stats().clone();
    let coord: &mut CoordinatorNode = sim.node_as(root_id).expect("root coordinator node");
    let engine = &mut coord.engine;
    let global = engine.coordinator.global_mixture().ok();
    let delivery_report = DeliveryReport {
        reliable: delivery.mode == DeliveryMode::Reliable,
        sent_messages: comm.total_messages(),
        sent_bytes: comm.total_bytes(),
        delivered_messages: fault_stats.delivered_messages,
        delivered_bytes: fault_stats.delivered_bytes,
        dropped_messages: fault_stats.dropped_messages,
        dropped_bytes: fault_stats.dropped_bytes,
        duplicated_messages: fault_stats.duplicated_messages,
        duplicated_bytes: fault_stats.duplicated_bytes,
        reordered_messages: fault_stats.reordered_messages,
        retransmitted_messages,
        retransmitted_bytes,
        ack_messages: engine.ack_messages + ack_messages,
        ack_bytes: engine.ack_bytes + ack_bytes,
        duplicates_discarded: duplicates_discarded
            + engine.inboxes.iter().map(ReliableInbox::duplicates).sum::<u64>(),
        crashes: fault_stats.crashes,
        restarts: fault_stats.restarts,
    };
    let bytes_at_root = comm.bytes_to(root_id);
    Ok(StarReport {
        comm,
        delivery: delivery_report,
        global,
        site_stats,
        site_models,
        site_memory,
        coordinator_groups: engine.coordinator.group_count(),
        coordinator_memory: engine.coordinator.memory_bytes(),
        bytes_at_root,
        sim_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::RemoteSite;
    use cludistream_gmm::{ChunkParams, Gaussian};
    use cludistream_rng::StdRng;
    use cludistream_simnet::LinkFaults;

    fn small_config() -> DriverConfig {
        DriverConfig {
            site: Config {
                dim: 1,
                k: 1,
                chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
                seed: 41,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn stable_stream(center: f64, seed: u64) -> RecordStream {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(std::iter::repeat_with(move || g.sample(&mut rng)))
    }

    fn chunk_of(cfg: &DriverConfig) -> u64 {
        RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64
    }

    #[test]
    fn star_run_produces_global_model() {
        let cfg = small_config();
        let chunk = chunk_of(&cfg);
        let streams: Vec<RecordStream> = vec![stable_stream(0.0, 1), stable_stream(50.0, 2)];
        let report = Simulation::star(2)
            .with_driver_config(cfg)
            .with_streams(streams)
            .with_updates_per_site(3 * chunk)
            .run()
            .unwrap();
        let global = report.global.expect("global mixture");
        assert!(global.k() >= 2, "coordinator lost a dense region");
        assert_eq!(report.site_stats.len(), 2);
        assert_eq!(report.site_stats[0].chunks, 3);
        assert!(report.sim_seconds > 0.0);
        assert!(report.delivery.balanced());
        assert!(!report.delivery.reliable);
    }

    #[test]
    fn stable_sites_send_one_synopsis_each() {
        let cfg = small_config();
        let chunk = chunk_of(&cfg);
        let streams: Vec<RecordStream> = vec![stable_stream(0.0, 21), stable_stream(0.0, 22)];
        let report = Simulation::star(2)
            .with_driver_config(cfg)
            .with_streams(streams)
            .with_updates_per_site(5 * chunk)
            .run()
            .unwrap();
        // One NewModel message per site and nothing else.
        assert_eq!(report.comm.total_messages(), 2, "stability violated");
        assert_eq!(report.site_models, vec![1, 1]);
    }

    #[test]
    fn per_second_series_available() {
        let cfg = small_config();
        let chunk = chunk_of(&cfg);
        let report = Simulation::star(1)
            .with_driver_config(cfg)
            .with_streams(vec![stable_stream(0.0, 5)])
            .with_updates_per_site(2 * chunk)
            .run()
            .unwrap();
        assert!(!report.comm.per_second().is_empty());
        let cum = report.comm.cumulative_per_second();
        assert_eq!(*cum.last().unwrap(), report.comm.total_bytes());
    }

    #[test]
    fn short_stream_with_no_full_chunk_is_silent() {
        let cfg = small_config();
        let report = Simulation::star(1)
            .with_driver_config(cfg)
            .with_streams(vec![stable_stream(0.0, 6)])
            .with_updates_per_site(10)
            .run()
            .unwrap();
        assert!(report.global.is_none());
        assert_eq!(report.comm.total_messages(), 0);
    }

    #[test]
    fn builder_rejects_bad_recipes() {
        assert!(matches!(Simulation::star(0).run(), Err(CludiError::Build(_))));
        assert!(matches!(Simulation::star(1).run(), Err(CludiError::Build(_))));
        assert!(matches!(
            Simulation::star(2).with_streams(vec![stable_stream(0.0, 1)]).run(),
            Err(CludiError::Build(_))
        ));
        assert!(matches!(
            Simulation::star(1)
                .with_streams(vec![stable_stream(0.0, 1)])
                .with_driver_config(DriverConfig { records_per_second: 0, ..Default::default() })
                .run(),
            Err(CludiError::InvalidConfig { name: "records_per_second", .. })
        ));
        assert!(matches!(
            Simulation::star(1)
                .with_streams(vec![stable_stream(0.0, 1)])
                .with_driver_config(DriverConfig { batch: 0, ..Default::default() })
                .run(),
            Err(CludiError::InvalidConfig { name: "batch", .. })
        ));
    }

    #[test]
    fn reliable_mode_on_clean_network_matches_fire_and_forget_model() {
        let cfg = small_config();
        let chunk = chunk_of(&cfg);
        let run = |reliable: bool| {
            let mut b = Simulation::star(2)
                .with_driver_config(small_config())
                .with_streams(vec![stable_stream(0.0, 1), stable_stream(50.0, 2)])
                .with_updates_per_site(3 * chunk);
            if reliable {
                b = b.with_reliability(DeliveryConfig { mode: DeliveryMode::Reliable });
            }
            b.run().unwrap()
        };
        let plain = run(false);
        let reliable = run(true);
        assert_eq!(plain.coordinator_groups, reliable.coordinator_groups);
        assert_eq!(plain.site_models, reliable.site_models);
        // The reliable run pays for sequence headers and ACKs.
        assert!(reliable.comm.total_bytes() > plain.comm.total_bytes());
        assert!(reliable.delivery.ack_messages > 0);
        assert_eq!(reliable.delivery.retransmitted_messages, 0, "clean network");
        assert!(reliable.delivery.balanced());
    }

    #[test]
    fn lossy_run_recovers_every_synopsis() {
        let cfg = small_config();
        let chunk = chunk_of(&cfg);
        let clean = Simulation::star(2)
            .with_driver_config(small_config())
            .with_streams(vec![stable_stream(0.0, 1), stable_stream(50.0, 2)])
            .with_updates_per_site(3 * chunk)
            .run()
            .unwrap();
        let lossy = Simulation::star(2)
            .with_driver_config(cfg)
            .with_streams(vec![stable_stream(0.0, 1), stable_stream(50.0, 2)])
            .with_updates_per_site(3 * chunk)
            .with_transport(Box::new(SimnetTransport::new().with_faults(
                FaultPlan::seeded(13).with_link(LinkFaults {
                    drop_p: 0.2,
                    duplicate_p: 0.1,
                    reorder_p: 0.3,
                    reorder_max_delay_us: 5_000,
                }),
            )))
            .run()
            .unwrap();
        assert!(lossy.delivery.reliable, "faults imply reliable delivery");
        assert!(lossy.delivery.dropped_messages > 0, "plan did drop traffic");
        assert_eq!(
            clean.coordinator_groups, lossy.coordinator_groups,
            "reliable delivery must recover the coordinator model"
        );
        assert!(lossy.delivery.balanced(), "byte accounting must balance");
    }

    #[test]
    fn site_crash_restart_resyncs_from_checkpoint() {
        let cfg = small_config();
        let chunk = chunk_of(&cfg);
        let updates = 3 * chunk;
        // Crash site 0 mid-run; the run must still deliver everything.
        let clean = Simulation::star(2)
            .with_driver_config(small_config())
            .with_streams(vec![stable_stream(0.0, 1), stable_stream(50.0, 2)])
            .with_updates_per_site(updates)
            .run()
            .unwrap();
        let crash_at = 2 * MICROS_PER_SEC;
        let faulty = Simulation::star(2)
            .with_driver_config(cfg)
            .with_streams(vec![stable_stream(0.0, 1), stable_stream(50.0, 2)])
            .with_updates_per_site(updates)
            .with_transport(Box::new(SimnetTransport::new().with_faults(
                FaultPlan::seeded(5).with_outage(NodeId(0), crash_at, crash_at + MICROS_PER_SEC),
            )))
            .run()
            .unwrap();
        assert_eq!(faulty.delivery.crashes, 1);
        assert_eq!(faulty.delivery.restarts, 1);
        assert_eq!(clean.coordinator_groups, faulty.coordinator_groups);
        // All records were processed despite the outage.
        assert_eq!(
            faulty.site_stats.iter().map(|s| s.records).sum::<u64>(),
            2 * updates,
            "restarted site lost records"
        );
        assert!(faulty.delivery.balanced());
    }
}
