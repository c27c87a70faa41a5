//! The process-per-site socket runtime: the coordinator ([`serve`]) and
//! site ([`run_site`]) roles over real `std::net` TCP, plus the in-process
//! [`TcpTransport`].
//!
//! Wire layout: every payload travels as a length-prefixed frame
//! ([`cludistream_wire::framing`]). The payload bytes themselves are
//! either a data-plane [`crate::protocol::Frame`] — the *same* synopsis
//! encoding the simulator delivers, so communication-cost numbers stay
//! comparable — or a [`Control`] frame (first byte ≥
//! [`super::control::CONTROL_TAG_MIN`]).
//!
//! Both roles are thin: [`serve`] is a `Downlink` (acceptor, handshake,
//! liveness, eviction, scrapes — see `runtime/downlink.rs`) over a
//! `CoordinatorEngine`; [`run_site`] is an `Uplink` (connect, rendezvous,
//! heartbeat, reconnect-and-resync — see `runtime/uplink.rs`) whose work
//! pulls records through a `SiteCore`. Each is one loop over one event
//! queue that reader threads feed: it sleeps only when it has nothing to
//! do, and then until an event or its next deadline. Nothing is re-sent
//! on a timer — on TCP a reconnect is the only retransmission.
//! This module holds what is particular to each: the root's snapshot and
//! alert answers, the site's record pump and send window, and the
//! builders and reports.
//!
//! Fleet telemetry plane (opt-in): when [`CoordinatorRunBuilder::fleet`]
//! is set and sites run with [`SiteRunBuilder::telemetry`], each site
//! piggybacks
//! [`cludistream_obs::TelemetryDelta`] frames on its heartbeat cadence, the coordinator
//! folds them into one [`FleetAggregator`], every `Ping` is answered
//! with a `Pong` (feeding a per-site `hb.rtt_us` histogram), the
//! rendezvous is followed by a Cristian clock probe so remote span
//! timestamps rebase onto the coordinator clock, and `StatusRequest` on
//! the same listener serves the fleet registry as Prometheus text. Both
//! knobs default off, so the in-process [`TcpTransport`] — whose sites
//! share one registry with the coordinator — and the golden socket
//! fixtures see a control plane identical to the pre-telemetry one.

use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::driver::{
    build_site_core, DeliveryMode, DeliveryReport, DriverConfig, RecordStream,
    StarReport,
};
use crate::engine::{CoordinatorEngine, SiteCore, UpChannel};
use crate::error::CludiError;
use crate::protocol::ReliableInbox;
use crate::remote::SiteStats;
use crate::runtime::control::{Control, HealthAlert};
use crate::runtime::downlink::{next_event, Downlink, Shard};
use crate::runtime::uplink::{Step, Uplink, Work};
use crate::serving::{ModelSnapshot, SnapshotHandle};
use crate::transport::{RunRecipe, Transport};
use crate::windows::WindowSpec;
use cludistream_gmm::{CovarianceType, Mixture};
use cludistream_obs::{catalogue, AlertSet, FleetAggregator, Obs, Recorder};
use cludistream_simnet::{CommStats, NodeId};
use cludistream_wire::ByteBuf;

/// Socket-runtime tuning shared by the coordinator and the sites. The
/// coordinator's values are authoritative: sites learn `heartbeat_us`
/// and `timeout_us` from the `Welcome` frame.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// How often idle sites ping, microseconds (default 500 ms).
    pub heartbeat_us: u64,
    /// Silence after which the coordinator evicts a site, microseconds
    /// (default 5 s; keep it several heartbeats wide).
    pub timeout_us: u64,
    /// How many times a site retries `connect` before giving up.
    pub connect_attempts: u32,
    /// Delay between connect attempts, milliseconds.
    pub connect_retry_ms: u64,
    /// Hard wall-clock bound on [`serve`]; `None` waits indefinitely.
    /// Set it in CI so a wedged round fails instead of hanging.
    pub deadline: Option<Duration>,
    /// How long [`serve`] keeps answering bare-connection control
    /// frames (status, snapshot and health requests) after the round
    /// finishes, before tearing down. `None` (the default) exits as
    /// soon as every site is done — the pre-linger behaviour. Monitors
    /// that need to observe the round's final health state set a
    /// window here.
    pub linger: Option<Duration>,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            heartbeat_us: 500_000,
            timeout_us: 5_000_000,
            connect_attempts: 50,
            connect_retry_ms: 100,
            deadline: None,
            linger: None,
        }
    }
}

/// Everything the socket coordinator needs to serve one round.
///
/// Construct it with [`CoordinatorRun::builder`], which validates the
/// configuration before [`serve`] ever binds a thread to it; the fields
/// are private, so the builder's validation is the only way in.
pub struct CoordinatorRun {
    sites: usize,
    coordinator: CoordinatorConfig,
    dim: u32,
    cov: CovarianceType,
    obs: Obs,
    socket: SocketConfig,
    fleet: Option<Arc<FleetAggregator>>,
    snapshots: Option<Arc<SnapshotHandle>>,
    alerts: Option<AlertSet>,
}

impl CoordinatorRun {
    /// Starts a validated-defaults builder for a `sites`-site round.
    pub fn builder(sites: usize) -> CoordinatorRunBuilder {
        CoordinatorRunBuilder(CoordinatorRun {
            sites,
            coordinator: CoordinatorConfig::default(),
            dim: 1,
            cov: CovarianceType::default(),
            obs: Obs::noop(),
            socket: SocketConfig::default(),
            fleet: None,
            snapshots: None,
            alerts: None,
        })
    }
}

/// Builder for [`CoordinatorRun`]: every knob defaults to the value the
/// in-process [`TcpTransport`] uses, and [`CoordinatorRunBuilder::build`]
/// rejects configurations [`serve`] could only fail on at runtime.
pub struct CoordinatorRunBuilder(CoordinatorRun);

impl CoordinatorRunBuilder {
    /// Sets the coordinator (merge/split/refine) configuration.
    pub fn coordinator(mut self, coordinator: CoordinatorConfig) -> Self {
        self.0.coordinator = coordinator;
        self
    }

    /// Sets the record dimension every site must agree on (default 1).
    pub fn dim(mut self, dim: u32) -> Self {
        self.0.dim = dim;
        self
    }

    /// Sets the covariance kind every site must agree on.
    pub fn covariance(mut self, cov: CovarianceType) -> Self {
        self.0.cov = cov;
        self
    }

    /// Attaches a telemetry observer (default: no-op).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.0.obs = obs;
        self
    }

    /// Overrides the socket tuning.
    pub fn socket(mut self, socket: SocketConfig) -> Self {
        self.0.socket = socket;
        self
    }

    /// Opts into the fleet telemetry plane: a Cristian clock probe after
    /// every `Welcome`, folding inbound [`cludistream_obs::TelemetryDelta`]s into the
    /// fleet registry, and answering `StatusRequest` scrapes with
    /// Prometheus text. Off by default (the in-process [`TcpTransport`])
    /// so the control plane stays byte-identical to the pre-telemetry
    /// runtime.
    pub fn fleet(mut self, fleet: Arc<FleetAggregator>) -> Self {
        self.0.fleet = Some(fleet);
        self
    }

    /// Opts into serving-layer snapshot publication: the engine publishes
    /// a fresh [`ModelSnapshot`] into the handle after every applied
    /// message, and `SnapshotRequest` control frames answer with the
    /// latest published version. Without it, `SnapshotRequest` still
    /// answers (an on-demand capture) but the write path stays
    /// byte-identical to the pre-serving runtime.
    pub fn snapshots(mut self, handle: Arc<SnapshotHandle>) -> Self {
        self.0.snapshots = Some(handle);
        self
    }

    /// Opts into coordinator-side alerting: the rule set is evaluated
    /// against the fleet registry whenever a `HealthRequest` control
    /// frame arrives, and each rule's state lands back in the registry
    /// as an `alert.<name>` gauge. Requires [`CoordinatorRunBuilder::
    /// fleet`] — rules read the fleet registry — which
    /// [`CoordinatorRunBuilder::build`] enforces.
    pub fn alerts(mut self, alerts: AlertSet) -> Self {
        self.0.alerts = Some(alerts);
        self
    }

    /// Validates and produces the run.
    pub fn build(self) -> Result<CoordinatorRun, CludiError> {
        let run = self.0;
        if run.sites == 0 {
            return Err(CludiError::InvalidConfig { name: "sites", constraint: "sites >= 1" });
        }
        if run.dim == 0 {
            return Err(CludiError::InvalidConfig { name: "dim", constraint: "dim >= 1" });
        }
        if run.alerts.is_some() && run.fleet.is_none() {
            return Err(CludiError::InvalidConfig {
                name: "alerts",
                constraint: "alert rules read the fleet registry; call .fleet(..) too",
            });
        }
        validate_socket(&run.socket)?;
        Ok(run)
    }
}

/// Socket-tuning sanity shared by both builders: a zero heartbeat would
/// busy-spin the ping loop, and a timeout at or under the heartbeat
/// evicts every site between two pings.
pub(crate) fn validate_socket(socket: &SocketConfig) -> Result<(), CludiError> {
    if socket.heartbeat_us == 0 {
        return Err(CludiError::InvalidConfig {
            name: "socket.heartbeat_us",
            constraint: "heartbeat_us >= 1",
        });
    }
    if socket.timeout_us <= socket.heartbeat_us {
        return Err(CludiError::InvalidConfig {
            name: "socket.timeout_us",
            constraint: "timeout_us > heartbeat_us",
        });
    }
    Ok(())
}

/// What the socket coordinator produced.
#[derive(Debug)]
pub struct CoordReport {
    /// Final group count.
    pub groups: usize,
    /// Final global mixture, when any site reported a model.
    pub global: Option<Mixture>,
    /// Coordinator memory, bytes.
    pub memory_bytes: usize,
    /// Per-second communication accounting (data frames in, ACKs out),
    /// stamped with wall-clock microseconds since serve start.
    pub comm: CommStats,
    /// ACK frames sent.
    pub ack_messages: u64,
    /// ACK bytes sent.
    pub ack_bytes: u64,
    /// Duplicate or stale data frames discarded by the inboxes.
    pub duplicates_discarded: u64,
    /// Sites that ended the round evicted.
    pub evicted: Vec<u32>,
    /// Reconnect-resyncs served.
    pub resyncs: u64,
    /// Final state of the round in the serving wire layout — the
    /// coordinator's checkpoint. The last published snapshot when a
    /// [`SnapshotHandle`] was attached, an end-of-round capture
    /// otherwise; `None` only when no site ever reported a model.
    pub snapshot: Option<ModelSnapshot>,
}

/// One finished site's accounting, returned by [`run_site`].
#[derive(Debug)]
pub struct SiteReport {
    /// Site processing statistics (records, chunks, EM runs).
    pub stats: SiteStats,
    /// Models held at the end of the run.
    pub models: usize,
    /// Site memory (Theorem 3 accounting), bytes.
    pub memory_bytes: usize,
    /// Frames put on the wire (including retransmissions).
    pub sent_messages: u64,
    /// Bytes put on the wire (payloads; the 4-byte length prefix is
    /// excluded to match the simulator's accounting).
    pub sent_bytes: u64,
    /// Frames re-sent after a reconnect (the tail past the parent's
    /// cumulative ACK); zero on a connection that never dropped.
    pub retransmitted_messages: u64,
    /// Bytes re-sent after a reconnect.
    pub retransmitted_bytes: u64,
    /// Times this site reconnected and resynced.
    pub resyncs: u64,
}

/// What the root answers differently from a shard: the published (or
/// on-demand) snapshot and the alert verdicts.
struct Root {
    engine: CoordinatorEngine,
    alerts: Option<AlertSet>,
}

impl Shard for Root {
    fn on_wire(&mut self, payload: &ByteBuf) -> Option<ByteBuf> {
        self.engine.on_wire(payload)
    }

    fn cumulative(&self, local: usize) -> u64 {
        self.engine.inboxes[local].cumulative()
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        let encode = |snapshot: &ModelSnapshot| snapshot.encode().into_vec();
        match &self.engine.publish {
            Some(handle) => handle.load().map(|s| encode(&s)).unwrap_or_default(),
            // No publication hook: serve an on-demand capture so snapshot
            // pulls degrade gracefully (version 0, since nothing assigned
            // one).
            None => ModelSnapshot::capture(&self.engine.coordinator)
                .map(|s| encode(&s))
                .unwrap_or_default(),
        }
    }

    /// Evaluates the rule set; the fleet mirrors each rule's verdict back
    /// into its registry as an `alert.<name>` gauge so the Prometheus
    /// exposition carries the same story as the reply.
    fn health(&self, fleet: &FleetAggregator) -> Vec<HealthAlert> {
        let Some(alerts) = &self.alerts else { return Vec::new() };
        if let Some(snapshot) = self.engine.publish.as_ref().and_then(|h| h.load()) {
            // Snapshot staleness in applied-messages behind: how far the
            // read path lags the write path.
            let behind = self
                .engine
                .coordinator
                .messages_applied()
                .saturating_sub(snapshot.messages_applied);
            fleet.registry().gauge(catalogue::SERVE_STALENESS_ROUNDS, behind as f64);
        }
        fleet
            .evaluate_alerts(alerts)
            .into_iter()
            .map(|a| HealthAlert {
                name: a.name,
                metric: a.metric,
                firing: a.firing,
                value: a.value,
                threshold: a.threshold,
            })
            .collect()
    }
}

/// Serves one clustering round: waits for `run.sites` sites to
/// rendezvous, broadcasts `Start`, applies their synopses, answers with
/// ACKs, evicts sites silent past the timeout, and broadcasts `Stop`
/// once every site is done (or evicted).
///
/// The caller binds the listener (so it can publish the ephemeral port
/// before any site connects) and this function consumes it.
pub fn serve(listener: TcpListener, run: CoordinatorRun) -> Result<CoordReport, CludiError> {
    let CoordinatorRun { sites, coordinator, dim, cov, obs, socket, fleet, snapshots, alerts } =
        run;
    let mut coord = Coordinator::new(coordinator)?;
    coord.set_observer(obs.clone());
    let mut engine = CoordinatorEngine::new(coord, sites, obs.clone());
    engine.publish = snapshots;
    let mut root = Root { engine, alerts };
    let (events_tx, events) = mpsc::channel();
    let mut down = Downlink::new(listener, events_tx, 0, sites, dim, cov, obs, socket, fleet)?;
    let deadline = socket.deadline.and_then(|d| down.epoch.checked_add(d));
    let linger = socket.linger.unwrap_or(Duration::ZERO);
    let mut finished_at: Option<Instant> = None;

    let outcome = loop {
        // Sleep until something arrives, or until the earliest moment the
        // loop has to act on its own: a child falling silent past the
        // timeout, the deadline, the end of the linger window.
        let linger_until = finished_at.and_then(|f| f.checked_add(linger));
        let until = [down.next_eviction(), deadline, linger_until].into_iter().flatten().min();
        let mut event = match next_event(&events, until) {
            Ok(event) => event,
            Err(e) => break Err(e),
        };
        while let Some(current) = event {
            down.on_event(&mut root, current);
            event = events.try_recv().ok();
        }
        down.evict();
        if deadline.is_some_and(|d| Instant::now() > d) {
            break Err(CludiError::Net("coordinator serve deadline exceeded".into()));
        }
        if down.machine.finished() {
            // Broadcast Stop exactly once; with a linger window the loop
            // then keeps answering bare-connection control frames
            // (status/snapshot/health scrapes) so a monitor can observe
            // the round's final state before teardown.
            let finished = *finished_at.get_or_insert_with(|| {
                down.broadcast(&Control::Stop);
                Instant::now()
            });
            if finished.elapsed() >= linger {
                break Ok(());
            }
        }
    };
    down.close();
    outcome?;
    let engine = root.engine;

    // The end-of-round checkpoint, in the same wire layout a live
    // `SnapshotRequest` is answered with: prefer the last published
    // snapshot (it carries the version counter), fall back to a fresh
    // capture when no handle was attached.
    let snapshot = engine
        .publish
        .as_ref()
        .and_then(|handle| handle.load())
        .map(|arc| (*arc).clone())
        .or_else(|| ModelSnapshot::capture(&engine.coordinator).ok());

    Ok(CoordReport {
        groups: engine.coordinator.group_count(),
        global: engine.coordinator.global_mixture().ok(),
        memory_bytes: engine.coordinator.memory_bytes(),
        ack_messages: engine.ack_messages,
        ack_bytes: engine.ack_bytes,
        duplicates_discarded: engine.inboxes.iter().map(ReliableInbox::duplicates).sum(),
        evicted: down.evicted(),
        resyncs: down.resyncs,
        comm: down.comm,
        snapshot,
    })
}

/// Everything one socket site needs to run its half of a round.
///
/// Construct it with [`SiteRun::builder`], which validates the
/// configuration before [`run_site`] ever dials out; the fields are
/// private, so the builder's validation is the only way in.
pub struct SiteRun {
    site: usize,
    window: WindowSpec,
    config: DriverConfig,
    stream: RecordStream,
    updates: u64,
    socket: SocketConfig,
    telemetry: bool,
}

impl SiteRun {
    /// Starts a validated-defaults builder for site `site` streaming
    /// `stream`. Delivery is always [`DeliveryMode::Reliable`]: a
    /// reconnect needs sequence state to resync.
    pub fn builder(site: usize, stream: RecordStream) -> SiteRunBuilder {
        SiteRunBuilder(SiteRun {
            site,
            stream,
            window: WindowSpec::Landmark,
            config: DriverConfig::default(),
            updates: 0,
            socket: SocketConfig::default(),
            telemetry: false,
        })
    }
}

/// Builder for [`SiteRun`]: landmark window and default socket tuning
/// unless overridden; [`SiteRunBuilder::build`] rejects configurations
/// [`run_site`] could only fail on at runtime.
pub struct SiteRunBuilder(SiteRun);

impl SiteRunBuilder {
    /// Sets the window semantics (default: landmark).
    pub fn window(mut self, window: WindowSpec) -> Self {
        self.0.window = window;
        self
    }

    /// Sets the driver configuration (site config, rates, observer).
    pub fn config(mut self, config: DriverConfig) -> Self {
        self.0.config = config;
        self
    }

    /// Sets how many records to consume.
    pub fn updates(mut self, updates: u64) -> Self {
        self.0.updates = updates;
        self
    }

    /// Overrides the socket tuning.
    pub fn socket(mut self, socket: SocketConfig) -> Self {
        self.0.socket = socket;
        self
    }

    /// Opts into the fleet telemetry plane: stamp the registry clock
    /// from a local monotonic epoch, answer `ClockProbe`s, record
    /// `hb.rtt_us` from `Pong` echoes, and flush [`cludistream_obs::TelemetryDelta`]s to
    /// the coordinator on the heartbeat cadence. Leave `false` whenever
    /// the site shares a registry with the coordinator (the in-process
    /// [`TcpTransport`]), where deltas would double-count.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.0.telemetry = telemetry;
        self
    }

    /// Validates and produces the run.
    pub fn build(self) -> Result<SiteRun, CludiError> {
        validate_socket(&self.0.socket)?;
        Ok(self.0)
    }
}

/// Frames a site keeps unacknowledged before it stops pulling records
/// (go-back-N's N). It bounds the site's queue under a slow or partitioned
/// parent, and it turns snapshot latency from queue length back into
/// work: with sites faster than the coordinator, every synopsis waits
/// behind the ones in flight. The window is looked at between batches and
/// a batch is drained whole, as the simulator drains it (the journals must
/// agree), so a batch that ends several chunks can overshoot by its extra
/// frames; at the default 100-record batch against a 1567-record chunk it
/// cannot.
///
/// Measured on `drift_tcp` (seed 1, 2 cores, two runs each; best and
/// median repetition, then `change_to_snapshot_ms` p50 / p90):
///
/// | W         | records/s best | median    | p50 ms      | p90 ms      |
/// |-----------|----------------|-----------|-------------|-------------|
/// | *at PR 17's merge cost (≈ 0.9 ms per merge)*                       |
/// | 1         | 579–606 k      | 511–533 k | 9.8–10.7    | 14.2–15.3   |
/// | 2         | 632–656 k      | 541–591 k | 17.0–18.2   | 20.6–22.3   |
/// | 4         | 640–672 k      | 586 k     | 36.0        | 43.5–51.4   |
/// | unbounded | 635–640 k      | 540 k     | 54.2–65.8   | 94.5–98.3   |
/// | *at PR 19's merge cost (≈ 0.25 ms per merge), 2026-10-02*          |
/// | 2         | 1 232–1 317 k  | 870–880 k | 6.2–7.4     | 9.9–12.2    |
///
/// At PR 17's merge cost the run was coordinator-bound, so past 2 the
/// window bought no throughput and every doubling doubled the latency.
/// At PR 19's it is site-bound: the coordinator keeps up, a synopsis
/// seldom waits behind another, and W = 1 and W = 2 read the same
/// latency within run-to-run spread; what W = 2 still buys is that a
/// site does not idle for the ACK's round trip after every synopsis
/// (W = 1: −8 % then, −10 % now).
const SEND_WINDOW: usize = 2;

/// A site's work between looks at its event queue: pull the next batch of
/// records through the window and send whatever synopses that produced.
struct SitePump {
    core: SiteCore,
    stream: RecordStream,
    remaining: u64,
    batch: usize,
}

impl Work for SitePump {
    fn channel(&mut self) -> &mut UpChannel {
        &mut self.core.up
    }

    fn step(&mut self, send: &mut dyn FnMut(ByteBuf)) -> Result<Step, CludiError> {
        if self.remaining == 0 {
            return Ok(Step::Exhausted);
        }
        if self.core.up.pending() >= SEND_WINDOW {
            // Parent-bound: sleep until an ACK opens the window.
            self.core.up.obs.counter(catalogue::UPLINK_WINDOW_STALLS, 1);
            return Ok(Step::Idle);
        }
        let take = (self.batch as u64).min(self.remaining) as usize;
        for _ in 0..take {
            let Some(record) = self.stream.next() else {
                self.remaining = 0;
                break;
            };
            let _ = self.core.window.push(record)?;
            self.remaining -= 1;
        }
        self.core.drain_outbound(send);
        Ok(if self.remaining == 0 { Step::Exhausted } else { Step::Busy })
    }
}

/// Runs one site against a coordinator at `addr`: rendezvous, stream the
/// records, keep liveness, and reconnect-with-resync on any socket
/// failure until the coordinator says `Stop`.
pub fn run_site(addr: &str, run: SiteRun) -> Result<SiteReport, CludiError> {
    let SiteRun { site, window, config, stream, updates, socket, telemetry } = run;
    // The RTO schedule is the simulator's: a socket re-sends only after a
    // reconnect, so only the mode is read here.
    let core = build_site_core(&config, window, site, DeliveryMode::Reliable)?;
    let mut pump = SitePump { core, stream, remaining: updates, batch: config.batch };
    let (events_tx, events) = mpsc::channel();
    let mut up = Uplink {
        parent_addr: addr,
        role: "site",
        index: site as u32,
        dim: config.site.dim as u32,
        cov: config.site.covariance,
        obs: config.obs.clone(),
        socket,
        telemetry,
        epoch: Instant::now(),
        events,
        events_tx,
        sent_messages: 0,
        sent_bytes: 0,
        resyncs: 0,
    };
    up.run(&mut pump)?;

    let core = pump.core;
    Ok(SiteReport {
        stats: core.window.site().stats(),
        models: core.window.site().models().len(),
        memory_bytes: core.window.site().memory_bytes(),
        sent_messages: up.sent_messages,
        sent_bytes: up.sent_bytes,
        retransmitted_messages: core.up.retransmitted_messages,
        retransmitted_bytes: core.up.retransmitted_bytes,
        resyncs: up.resyncs,
    })
}

/// The socket transport: sites on their own OS threads, the coordinator
/// loop on the calling thread, loopback TCP in between. Reliable-only —
/// [`DeliveryMode::FireAndForget`] recipes are rejected, because a
/// reconnect needs sequence state to resync.
///
/// For genuinely separate processes, use the `cludistream coordinator` /
/// `cludistream site` binaries, which call [`serve`] and [`run_site`]
/// directly.
#[derive(Debug, Default)]
pub struct TcpTransport {
    socket: SocketConfig,
}

impl TcpTransport {
    /// A loopback socket transport with default heartbeat/timeout tuning.
    pub fn new() -> TcpTransport {
        TcpTransport::default()
    }

    /// Overrides the socket tuning.
    pub fn with_socket(mut self, socket: SocketConfig) -> TcpTransport {
        self.socket = socket;
        self
    }
}

impl Transport for TcpTransport {
    fn run(self: Box<Self>, recipe: RunRecipe) -> Result<StarReport, CludiError> {
        if recipe.tree.is_some() {
            return Err(CludiError::Build(
                "the TCP transport has no in-process aggregator tier: compose \
                 `cludistream aggregator` processes between the sites and the root instead",
            ));
        }
        if recipe.delivery.is_some_and(|d| d != DeliveryMode::Reliable) {
            return Err(CludiError::Build(
                "the TCP transport is reliable-only: a reconnect needs sequence state to resync",
            ));
        }
        let RunRecipe { sites, config, .. } = recipe;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?.to_string();
        let started = Instant::now();

        let mut handles = Vec::with_capacity(sites);
        for (i, stream) in recipe.streams.into_iter().enumerate() {
            // All roles share `config.obs` here, so telemetry stays off:
            // deltas folded back into the same registry would
            // double-count.
            let run = SiteRun::builder(i, stream)
                .window(recipe.window)
                .config(config.clone())
                .updates(recipe.updates_per_site)
                .socket(self.socket)
                .build()?;
            let addr = addr.clone();
            handles.push(thread::spawn(move || run_site(&addr, run)));
        }
        let mut coord_run = CoordinatorRun::builder(sites)
            .coordinator(config.coordinator.clone())
            .dim(config.site.dim as u32)
            .covariance(config.site.covariance)
            .obs(config.obs.clone())
            .socket(self.socket);
        if let Some(handle) = recipe.snapshots {
            coord_run = coord_run.snapshots(handle);
        }
        let coord_outcome = serve(listener, coord_run.build()?);
        // Join the sites even when the coordinator failed, so their
        // threads never outlive the run.
        let mut site_reports = Vec::with_capacity(sites);
        for handle in handles {
            site_reports.push(
                handle
                    .join()
                    .map_err(|_| CludiError::Net("site thread panicked".into()))?,
            );
        }
        let coord = coord_outcome?;
        let mut site_stats = Vec::with_capacity(sites);
        let mut site_models = Vec::with_capacity(sites);
        let mut site_memory = Vec::with_capacity(sites);
        let mut retransmitted_messages = 0;
        let mut retransmitted_bytes = 0;
        for report in site_reports {
            let report = report?;
            site_stats.push(report.stats);
            site_models.push(report.models);
            site_memory.push(report.memory_bytes);
            retransmitted_messages += report.retransmitted_messages;
            retransmitted_bytes += report.retransmitted_bytes;
        }
        // TCP delivers everything it accepts; anything lost to a dropped
        // connection was retransmitted after the resync, so the books
        // balance with zero drop/duplicate rows.
        let delivery_report = DeliveryReport {
            reliable: true,
            sent_messages: coord.comm.total_messages(),
            sent_bytes: coord.comm.total_bytes(),
            delivered_messages: coord.comm.total_messages(),
            delivered_bytes: coord.comm.total_bytes(),
            retransmitted_messages,
            retransmitted_bytes,
            ack_messages: coord.ack_messages,
            ack_bytes: coord.ack_bytes,
            duplicates_discarded: coord.duplicates_discarded,
            ..Default::default()
        };
        let bytes_at_root = coord.comm.bytes_to(NodeId(sites));
        Ok(StarReport {
            comm: coord.comm,
            delivery: delivery_report,
            global: coord.global,
            site_stats,
            site_models,
            site_memory,
            coordinator_groups: coord.groups,
            coordinator_memory: coord.memory_bytes,
            bytes_at_root,
            sim_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Frame, Message};
    use crate::remote::ModelId;
    use crate::runtime::control::{RejectCode, PROTOCOL_VERSION};
    use cludistream_obs::Registry;
    use cludistream_wire::framing::{write_frame, FrameReader};
    use cludistream_wire::ByteReader;
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// In-memory journal sink readable after the run.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("sink lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn send(stream: &mut TcpStream, payload: &[u8]) {
        write_frame(stream, payload).expect("write frame");
        stream.flush().expect("flush");
    }

    fn hello(site: u32, resume: bool) -> Control {
        Control::Hello { version: PROTOCOL_VERSION, site, dim: 1, cov: CovarianceType::Full, resume }
    }

    /// Reads frames until the coordinator's `Welcome`, skipping `Start`
    /// (whose arrival order depends on when the other site joins).
    fn await_welcome(stream: &mut TcpStream, reader: &mut FrameRx) -> u64 {
        loop {
            let frame = reader.next_payload(stream);
            if !Control::is_control(&frame) {
                continue;
            }
            match Control::decode(&mut ByteReader::new(&frame)).expect("control frame") {
                Control::Welcome { version, ack, .. } => {
                    assert_eq!(version, PROTOCOL_VERSION);
                    return ack;
                }
                Control::Start => {}
                other => panic!("expected Welcome, got {other:?}"),
            }
        }
    }

    /// Drives a hand-rolled site against [`serve`] through the full
    /// failure story: join, send one sequenced frame, vanish silently,
    /// get evicted (journal event + `coord.evict`), reconnect with
    /// `resume`, and receive the coordinator's cumulative ACK so the
    /// resync starts exactly where the inbox left off.
    #[test]
    fn eviction_and_rejoin_resync_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sink = SharedBuf::default();
        let registry = Arc::new(Registry::with_journal(Box::new(sink.clone())));
        let run = CoordinatorRun::builder(2)
            .obs(Obs::from_registry(Arc::clone(&registry)))
            .socket(SocketConfig {
                // Pings every 50 ms against a 1 s timeout: a 20× margin,
                // so site 1 survives scheduler stalls even when the whole
                // workspace test suite runs in parallel on a loaded host.
                heartbeat_us: 50_000,
                timeout_us: 1_000_000,
                deadline: Some(Duration::from_secs(30)),
                ..SocketConfig::default()
            })
            .build()
            .expect("valid coordinator run");
        let server = thread::spawn(move || serve(listener, run));

        // Site 1 stays healthy for the whole round on its own thread,
        // pinging until told to finish — it keeps the round alive while
        // site 0 is evicted.
        let finish = Arc::new(AtomicBool::new(false));
        let finish_signal = Arc::clone(&finish);
        let site1 = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("site 1 connect");
            let mut reader = FrameRx::new();
            send(&mut s, hello(1, false).encode().as_slice());
            await_welcome(&mut s, &mut reader);
            s.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
            while !finish_signal.load(Ordering::Relaxed) {
                send(&mut s, Control::Ping { site: 1, sent_us: 0 }.encode().as_slice());
                // Drain whatever the coordinator broadcast (`Start`):
                // closing a socket with unread data queued makes TCP
                // reset the connection, which would discard our final
                // `Done` in flight. The real site loop drains too.
                let _ = reader.reader.poll(&mut s);
                thread::sleep(Duration::from_millis(40));
            }
            send(&mut s, Control::Done { site: 1 }.encode().as_slice());
            // Hold the socket open until `Stop` (or the teardown EOF) so
            // the `Done` is delivered before the close.
            loop {
                match reader.reader.poll(&mut s) {
                    Ok(polled) => {
                        if polled.frames.iter().any(|f| {
                            matches!(
                                Control::decode(&mut ByteReader::new(f)),
                                Ok(Control::Stop)
                            )
                        }) || polled.eof
                        {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        });

        // Site 0 joins and gets one sequenced data frame acknowledged.
        let mut s0 = TcpStream::connect(addr).expect("site 0 connect");
        let mut reader0 = FrameRx::new();
        send(&mut s0, hello(0, false).encode().as_slice());
        assert_eq!(await_welcome(&mut s0, &mut reader0), 0, "fresh inbox");
        // Sequence numbers start at 0; the cumulative ACK counts in-order
        // frames received, so one accepted frame acks as 1.
        let data = Frame::Data {
            seq: 0,
            message: Message::Delete { site: 0, model: ModelId(9), count_delta: 1 },
            ctx: None,
        };
        send(&mut s0, data.encode(CovarianceType::Full).as_slice());
        let ack = loop {
            let frame = reader0.next_payload(&mut s0);
            if Control::is_control(&frame) {
                continue; // Start
            }
            match Frame::decode(&mut ByteReader::new(&frame)).expect("data-plane frame") {
                Frame::Ack { cumulative } => break cumulative,
                other => panic!("expected Ack, got {other:?}"),
            }
        };
        assert_eq!(ack, 1, "coordinator acknowledged seq 1");

        // Site 0 vanishes without a Done; past the timeout it is evicted.
        drop(s0);
        let evicted = || {
            let journal = sink.0.lock().expect("sink lock");
            String::from_utf8_lossy(&journal).contains("\"event\":\"SiteEvicted\"")
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !evicted() && Instant::now() < deadline {
            registry.flush_journal().expect("flush");
            thread::sleep(Duration::from_millis(20));
        }

        // Reconnect-resume: the Welcome must carry cumulative ACK 1, the
        // go-back-N resync point (nothing before it is retransmitted).
        let mut s0 = TcpStream::connect(addr).expect("site 0 reconnect");
        let mut reader0 = FrameRx::new();
        send(&mut s0, hello(0, true).encode().as_slice());
        assert_eq!(await_welcome(&mut s0, &mut reader0), 1, "resync from the inbox position");
        send(&mut s0, Control::Done { site: 0 }.encode().as_slice());
        finish.store(true, Ordering::Relaxed);

        site1.join().expect("site 1 thread");
        let report = server.join().expect("serve thread").expect("serve succeeds");
        registry.flush_journal().expect("flush");

        let journal =
            String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf-8");
        assert_eq!(report.resyncs, 1, "one resume served");
        assert!(
            report.evicted.is_empty(),
            "no site may end the round evicted (0 rejoined, 1 stayed live): {:?}\n{journal}",
            report.evicted
        );
        assert!(
            journal.lines().any(|l| l.contains("\"event\":\"SiteEvicted\"") && l.contains("\"site\":0")),
            "missing SiteEvicted for site 0:\n{journal}"
        );
        assert!(
            journal.lines().any(|l| l.contains("\"event\":\"SiteResynced\"") && l.contains("\"ack\":1")),
            "missing SiteResynced with ack 1:\n{journal}"
        );
    }

    /// The Done/teardown race: a parent that has read this site's `Done`
    /// and vanished — socket closed, listener gone, no `Stop` — is the
    /// round tearing down, not a connection to resync. The burst of clock
    /// probes makes the site write `ClockEcho`es into the closed socket
    /// before its next read can see the EOF, so the failure it meets is a
    /// *write* error after `Done`; reconnecting from there would dial a
    /// listener that no longer exists.
    #[test]
    fn parent_vanishing_after_done_ends_the_round() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let parent = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut rx = FrameRx::new();
            rx.next_control(&mut s, |c| matches!(c, Control::Hello { site: 0, resume: false, .. }));
            let welcome = Control::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_us: 1_000,
                timeout_us: 5_000_000,
                ack: 0,
            };
            send(&mut s, welcome.encode().as_slice());
            rx.next_control(&mut s, |c| matches!(c, Control::Done { site: 0 }));
            let mut probes = Vec::new();
            for t0_us in 0..64 {
                write_frame(&mut probes, Control::ClockProbe { t0_us }.encode().as_slice())
                    .expect("encode probe");
            }
            s.write_all(&probes).expect("probes");
            // `s` and `listener` drop here: no Stop, nothing to reconnect to.
        });

        // An empty stream: the site is exhausted at once and says Done
        // right after the rendezvous.
        let run = SiteRun::builder(0, Box::new(std::iter::empty()))
            .socket(SocketConfig {
                connect_attempts: 2,
                connect_retry_ms: 10,
                ..SocketConfig::default()
            })
            .build()
            .expect("valid site run");
        let report = run_site(&addr, run);
        parent.join().expect("parent thread");
        let report = report.expect("a vanished parent after Done is a finished round");
        assert_eq!(report.resyncs, 0, "nothing to resync from");
    }

    /// A `Hello` with the wrong protocol version is refused with a
    /// `Reject` naming the mismatch, and the round goes on without the
    /// impostor.
    #[test]
    fn version_mismatch_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let run = CoordinatorRun::builder(1)
            .socket(SocketConfig {
                deadline: Some(Duration::from_secs(10)),
                ..SocketConfig::default()
            })
            .build()
            .expect("valid coordinator run");
        let server = thread::spawn(move || serve(listener, run));

        let mut bad = TcpStream::connect(addr).expect("connect");
        let mut reader = FrameRx::new();
        let wrong = Control::Hello {
            version: PROTOCOL_VERSION + 1,
            site: 0,
            dim: 1,
            cov: CovarianceType::Full,
            resume: false,
        };
        send(&mut bad, wrong.encode().as_slice());
        let frame = reader.next_payload(&mut bad);
        match Control::decode(&mut ByteReader::new(&frame)).expect("control") {
            Control::Reject { code, expect, got } => {
                assert_eq!(code, RejectCode::Version);
                assert_eq!(expect, u64::from(PROTOCOL_VERSION));
                assert_eq!(got, u64::from(PROTOCOL_VERSION) + 1);
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        drop(bad);

        // A well-versioned site still completes the round.
        let mut good = TcpStream::connect(addr).expect("connect");
        let mut reader = FrameRx::new();
        send(&mut good, hello(0, false).encode().as_slice());
        await_welcome(&mut good, &mut reader);
        send(&mut good, Control::Done { site: 0 }.encode().as_slice());
        let report = server.join().expect("serve thread").expect("serve succeeds");
        assert!(report.evicted.is_empty());
    }

    /// Builder validation: impossible socket tunings and the
    /// fire-and-forget mode are rejected at build time, not at runtime.
    #[test]
    fn builders_validate_configuration() {
        assert!(CoordinatorRun::builder(0).build().is_err(), "sites >= 1");
        assert!(CoordinatorRun::builder(1).dim(0).build().is_err(), "dim >= 1");
        assert!(
            CoordinatorRun::builder(1)
                .socket(SocketConfig {
                    heartbeat_us: 1_000,
                    timeout_us: 500,
                    ..SocketConfig::default()
                })
                .build()
                .is_err(),
            "timeout must exceed the heartbeat"
        );
        assert!(
            CoordinatorRun::builder(1).alerts(AlertSet::default_rules()).build().is_err(),
            "alert rules need the fleet registry to read"
        );
        assert!(
            CoordinatorRun::builder(1)
                .fleet(Arc::new(FleetAggregator::new()))
                .alerts(AlertSet::default_rules())
                .build()
                .is_ok(),
            "alerts with a fleet are valid"
        );
        assert!(CoordinatorRun::builder(2).build().is_ok());

        assert!(SiteRun::builder(0, Box::new(std::iter::empty())).build().is_ok());
    }

    /// A bare connection — no handshake — pulls model snapshots: empty
    /// while nothing is published, then byte-decodable with the
    /// published version once the handle holds one.
    #[test]
    fn snapshot_pull_over_bare_connection() {
        use cludistream_gmm::{Gaussian, Mixture};
        use cludistream_linalg::Vector;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = Arc::new(SnapshotHandle::new());
        let run = CoordinatorRun::builder(1)
            .socket(SocketConfig {
                deadline: Some(Duration::from_secs(30)),
                ..SocketConfig::default()
            })
            .snapshots(Arc::clone(&handle))
            .build()
            .expect("valid coordinator run");
        let server = thread::spawn(move || serve(listener, run));

        let pull = || -> Vec<u8> {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut reader = FrameRx::new();
            send(&mut s, Control::SnapshotRequest.encode().as_slice());
            loop {
                let frame = reader.next_payload(&mut s);
                if let Ok(Control::SnapshotReply { snapshot }) =
                    Control::decode(&mut ByteReader::new(&frame))
                {
                    return snapshot;
                }
            }
        };

        assert!(pull().is_empty(), "nothing published yet");

        let mixture = Mixture::new(
            vec![Gaussian::spherical(Vector::from_slice(&[2.0]), 1.0).expect("gaussian")],
            vec![1.0],
        )
        .expect("mixture");
        let published = ModelSnapshot {
            version: 0,
            messages_applied: 3,
            covariance: CovarianceType::Full,
            mixture,
            groups: vec![crate::serving::SnapshotGroup {
                id: 7,
                weight: 1.0,
                members: Default::default(),
            }],
        };
        let version = handle.publish(published);
        let bytes = pull();
        let decoded =
            ModelSnapshot::decode(&mut ByteReader::new(&bytes)).expect("decodable snapshot");
        assert_eq!(decoded.version, version, "reply carries the published version");
        assert_eq!(decoded.messages_applied, 3);
        assert_eq!(decoded.groups.len(), 1);

        // Finish the round so serve() returns; its report repeats the
        // published snapshot as the end-of-round checkpoint.
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut reader = FrameRx::new();
        send(&mut s, hello(0, false).encode().as_slice());
        await_welcome(&mut s, &mut reader);
        send(&mut s, Control::Done { site: 0 }.encode().as_slice());
        let report = server.join().expect("serve thread").expect("serve succeeds");
        let checkpoint = report.snapshot.expect("end-of-round checkpoint");
        assert_eq!(checkpoint.version, version);
    }

    /// A bare connection — no handshake — drives the health endpoint
    /// through a full incident: before any site joins, the default
    /// `round-stalled` rule fires (and a counter rule on a quality
    /// series stays quiet); once the site joins and ships a drift
    /// counter, `round-stalled` clears and the counter rule fires; and
    /// with a linger window the endpoint still answers after the round
    /// finishes. Rule verdicts must also land in the registry as
    /// `alert.*` gauges so status scrapes tell the same story.
    #[test]
    fn health_endpoint_reports_and_clears_alerts() {
        use cludistream_obs::{AlertKind, AlertRule, FleetAggregator, TelemetryDelta};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fleet = Arc::new(FleetAggregator::new());
        let mut alerts = AlertSet::default_rules();
        alerts.push(AlertRule {
            name: "ph-drift".into(),
            metric: "quality.ph_drift".into(),
            kind: AlertKind::CounterAbove { threshold: 0 },
        });
        let run = CoordinatorRun::builder(1)
            .socket(SocketConfig {
                deadline: Some(Duration::from_secs(30)),
                linger: Some(Duration::from_secs(5)),
                ..SocketConfig::default()
            })
            .fleet(Arc::clone(&fleet))
            .alerts(alerts)
            .build()
            .expect("valid coordinator run");
        let server = thread::spawn(move || serve(listener, run));

        let health = || -> Vec<HealthAlert> {
            let mut s = TcpStream::connect(addr).expect("health connect");
            let mut rx = FrameRx::new();
            send(&mut s, Control::HealthRequest.encode().as_slice());
            let reply = rx.next_control(&mut s, |c| matches!(c, Control::HealthReply { .. }));
            let Control::HealthReply { alerts } = reply else { unreachable!() };
            alerts
        };
        let state = |alerts: &[HealthAlert], name: &str| -> bool {
            alerts.iter().find(|a| a.name == name).expect("rule present").firing
        };

        // Phase 1: nobody joined — the round is stalled, the drift
        // counter (absent, reads 0) is quiet.
        let before = health();
        assert!(state(&before, "round-stalled"), "no site joined: round-stalled must fire");
        assert!(!state(&before, "ph-drift"), "no drift counted yet");
        assert_eq!(fleet.registry().gauge_value("alert.round-stalled"), Some(1.0));

        // Phase 2: the site joins (starting the round) and ships one
        // Page-Hinkley drift alarm as a telemetry delta.
        let mut s = TcpStream::connect(addr).expect("site connect");
        let mut rx = FrameRx::new();
        send(&mut s, hello(0, false).encode().as_slice());
        rx.next_control(&mut s, |c| matches!(c, Control::Welcome { .. }));
        let delta = TelemetryDelta {
            site: 0,
            counters: vec![(cludistream_obs::catalogue::QUALITY_PH_DRIFT, 1)],
            ..TelemetryDelta::default()
        };
        send(
            &mut s,
            Control::Telemetry { site: 0, payload: delta.encode().into_vec() }
                .encode()
                .as_slice(),
        );

        // The delta and the health request travel on different
        // connections, so ordering is not guaranteed: poll until both
        // transitions are visible.
        let deadline = Instant::now() + Duration::from_secs(10);
        let after = loop {
            let now = health();
            if (!state(&now, "round-stalled") && state(&now, "ph-drift"))
                || Instant::now() > deadline
            {
                break now;
            }
            thread::sleep(Duration::from_millis(20));
        };
        assert!(!state(&after, "round-stalled"), "round started: rule must clear");
        assert!(state(&after, "ph-drift"), "drift counter 1 > 0 must fire");
        let drift = after.iter().find(|a| a.name == "ph-drift").expect("rule present");
        assert_eq!(drift.metric, "quality.ph_drift");
        assert_eq!(drift.value, 1.0);
        assert_eq!(fleet.registry().gauge_value("alert.round-stalled"), Some(0.0));

        // Phase 3: finish the round; within the linger window the
        // endpoint keeps answering so a monitor can watch recovery.
        send(&mut s, Control::Done { site: 0 }.encode().as_slice());
        let lingering = health();
        assert!(
            lingering.iter().any(|a| a.name == "round-stalled"),
            "health still answers during the linger window"
        );

        let report = server.join().expect("serve thread").expect("serve succeeds");
        assert!(report.evicted.is_empty());
    }

    /// One 2-site round of the `metrics` workload's shape (1-d, two
    /// regimes, two groups kept) against a fleet-enabled [`serve`]. The
    /// sites' streams hold their first record until `gate` opens, so a
    /// test can act between `Start` and the first synopsis; with
    /// `stranger`, a raw connection that never says `Hello` sends `Done`,
    /// `Ping` and `Telemetry` for both sites in that window.
    fn gated_round(stranger: bool) -> (CoordReport, Arc<FleetAggregator>, Arc<Registry>) {
        use cludistream_gmm::{ChunkParams, Gaussian};
        use cludistream_linalg::Vector;
        use cludistream_obs::catalogue::QUALITY_PH_DRIFT;
        use cludistream_obs::TelemetryDelta;
        use cludistream_rng::StdRng;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fleet = Arc::new(FleetAggregator::new());
        let registry = Arc::new(Registry::new());
        let run = CoordinatorRun::builder(2)
            .coordinator(CoordinatorConfig { max_groups: 2, ..CoordinatorConfig::default() })
            .obs(Obs::from_registry(Arc::clone(&registry)))
            .socket(SocketConfig { deadline: Some(Duration::from_secs(60)), ..Default::default() })
            .fleet(Arc::clone(&fleet))
            .build()
            .expect("valid coordinator run");
        let server = thread::spawn(move || serve(listener, run));

        let config = crate::config::Config {
            dim: 1,
            k: 2,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            seed: 7,
            ..Default::default()
        };
        let chunk =
            crate::remote::RemoteSite::new(config.clone()).expect("site config").chunk_size();
        let gate = Arc::new(AtomicBool::new(false));
        let sites: Vec<_> = (0..2u32)
            .map(|site| {
                let gate = Arc::clone(&gate);
                let mut rng = StdRng::seed_from_u64(7 + u64::from(site));
                let mut emitted = 0usize;
                let stream = std::iter::from_fn(move || {
                    while !gate.load(Ordering::Acquire) {
                        thread::sleep(Duration::from_millis(1));
                    }
                    let center = if emitted < 2 * chunk { 0.0 } else { 40.0 };
                    let side = if emitted.is_multiple_of(2) { -3.0 } else { 3.0 };
                    emitted += 1;
                    let g = Gaussian::spherical(Vector::from_slice(&[center + side]), 0.5)
                        .expect("gaussian");
                    Some(g.sample(&mut rng))
                });
                let run = SiteRun::builder(site as usize, Box::new(stream))
                    .config(DriverConfig { site: config.clone(), ..Default::default() })
                    .updates(4 * chunk as u64)
                    .socket(SocketConfig {
                        connect_attempts: 2,
                        connect_retry_ms: 10,
                        ..SocketConfig::default()
                    })
                    .build()
                    .expect("valid site run");
                let addr = addr.to_string();
                thread::spawn(move || run_site(&addr, run))
            })
            .collect();

        if stranger {
            let mut s = TcpStream::connect(addr).expect("stranger connect");
            let mut rx = FrameRx::new();
            let status = |s: &mut TcpStream, rx: &mut FrameRx| {
                send(s, Control::StatusRequest.encode().as_slice());
                match rx.next_control(s, |c| matches!(c, Control::StatusReply { .. })) {
                    Control::StatusReply { text } => String::from_utf8(text).expect("utf-8"),
                    _ => unreachable!(),
                }
            };
            // Wait for `Start`: both sites joined, their streams still shut.
            while !status(&mut s, &mut rx).contains("cludistream_coord_round_started 1\n") {
                thread::sleep(Duration::from_millis(5));
            }
            let counters = vec![(QUALITY_PH_DRIFT, 99)];
            let delta = TelemetryDelta { counters, ..TelemetryDelta::default() };
            for site in 0..2 {
                send(&mut s, Control::Done { site }.encode().as_slice());
                send(&mut s, Control::Ping { site, sent_us: 0 }.encode().as_slice());
                let payload = delta.encode().into_vec();
                send(&mut s, Control::Telemetry { site, payload }.encode().as_slice());
            }
            // One more scrape on the same connection: its reply means every
            // frame above was handled — unless they ended the round, in
            // which case the connection closes instead.
            send(&mut s, Control::StatusRequest.encode().as_slice());
            let _ = rx.reader.poll(&mut s);
        }
        gate.store(true, Ordering::Release);
        let report = server.join().expect("serve thread").expect("serve succeeds");
        for site in sites {
            site.join().expect("site thread").expect("site run ok");
        }
        (report, fleet, registry)
    }

    /// A connection that never said `Hello` cannot speak for a site: its
    /// `Done`s do not end the round, its `Ping`s keep no one alive, and its
    /// `Telemetry` never reaches the fleet. The round ends as an
    /// undisturbed one does, and all six frames are counted as strays.
    #[test]
    fn stranger_frames_neither_end_the_round_nor_reach_the_fleet() {
        let (quiet, _, quiet_registry) = gated_round(false);
        let (disturbed, fleet, registry) = gated_round(true);
        assert_eq!(quiet.groups, 2, "the undisturbed round keeps two groups");
        assert_eq!(disturbed.groups, quiet.groups, "coordinator groups: must not move");
        assert_eq!(
            registry.counter_value("coord.messages"),
            quiet_registry.counter_value("coord.messages"),
            "every synopsis still applied"
        );
        assert!(
            fleet.registry().counters().is_empty(),
            "the stranger's telemetry reached the fleet: {:?}",
            fleet.registry().counters()
        );
        assert_eq!(registry.counter_value("coord.stray_frames"), 6);
        assert_eq!(quiet_registry.counter_value("coord.stray_frames"), 0);
    }

    /// A hand-rolled peer's reading half. It keeps *every* frame a poll
    /// returns: back-to-back frames (Welcome + ClockProbe + Start, Start +
    /// an ACK) coalesce into one read and none of them may be dropped.
    struct FrameRx {
        reader: FrameReader,
        pending: std::collections::VecDeque<Vec<u8>>,
    }

    impl FrameRx {
        fn new() -> FrameRx {
            FrameRx { reader: FrameReader::new(), pending: std::collections::VecDeque::new() }
        }

        /// Blocks until the next frame of either plane.
        fn next_payload(&mut self, stream: &mut TcpStream) -> Vec<u8> {
            loop {
                if let Some(frame) = self.pending.pop_front() {
                    return frame;
                }
                let polled = self.reader.poll(stream).expect("poll");
                assert!(
                    !(polled.frames.is_empty() && polled.eof),
                    "connection closed while awaiting a frame"
                );
                self.pending.extend(polled.frames);
            }
        }

        /// Reads control frames until `want` accepts one, skipping the
        /// rest (Start arrives interleaved with the telemetry plane).
        fn next_control(
            &mut self,
            stream: &mut TcpStream,
            want: impl Fn(&Control) -> bool,
        ) -> Control {
            loop {
                let frame = self.next_payload(stream);
                if !Control::is_control(&frame) {
                    continue;
                }
                let ctrl = Control::decode(&mut ByteReader::new(&frame)).expect("control frame");
                if want(&ctrl) {
                    return ctrl;
                }
            }
        }
    }

    /// A hand-rolled parent's side of the rendezvous with site 0: accept,
    /// expect `Hello` with the given `resume`, answer `Welcome { ack }`
    /// under a 10 s heartbeat (so no timer of the site's fires in a test).
    fn welcome_site0(listener: &TcpListener, resume: bool, ack: u64) -> (TcpStream, FrameRx) {
        let (mut s, _) = listener.accept().expect("accept");
        let mut rx = FrameRx::new();
        rx.next_control(
            &mut s,
            |c| matches!(c, Control::Hello { site: 0, resume: r, .. } if *r == resume),
        );
        let welcome = Control::Welcome {
            version: PROTOCOL_VERSION,
            heartbeat_us: 10_000_000,
            timeout_us: 60_000_000,
            ack,
        };
        send(&mut s, welcome.encode().as_slice());
        (s, rx)
    }

    /// The sequence number of a data-plane payload that must be a data
    /// frame (a site sends nothing else on that plane).
    fn data_seq(payload: &[u8]) -> u64 {
        match Frame::decode(&mut ByteReader::new(payload)).expect("data-plane frame") {
            Frame::Data { seq, .. } => seq,
            other => panic!("expected a data frame, got {other:?}"),
        }
    }

    /// The rest of a `total`-frame round as a parent that acknowledges
    /// one frame for every frame it reads sees it: every data frame
    /// exactly once and in order starting at `next_seq`, never one the
    /// window should have held back, and `Done` only after the last ACK —
    /// promptly, with no timer tick in between.
    fn ack_one_by_one_until_done(
        s: &mut TcpStream,
        rx: &mut FrameRx,
        mut acked: u64,
        mut next_seq: u64,
        total: u64,
    ) {
        let mut last_ack_at = Instant::now();
        loop {
            if acked < next_seq {
                acked += 1;
                send(s, Frame::Ack { cumulative: acked }.encode(CovarianceType::Full).as_slice());
                last_ack_at = Instant::now();
                if next_seq == total && acked < total {
                    // Nothing more is coming: acknowledge what is left.
                    continue;
                }
            }
            let frame = rx.next_payload(s);
            if Control::is_control(&frame) {
                let ctrl = Control::decode(&mut ByteReader::new(&frame)).expect("control frame");
                if ctrl == (Control::Done { site: 0 }) {
                    assert_eq!((acked, next_seq), (total, total), "Done must follow the last ACK");
                    assert!(
                        last_ack_at.elapsed() < Duration::from_secs(1),
                        "Done waited {:?} after the last ACK: a timer, not the ACK, woke the site",
                        last_ack_at.elapsed()
                    );
                    return;
                }
                continue;
            }
            let seq = data_seq(&frame);
            assert_eq!(seq, next_seq, "every seq exactly once, in order");
            assert!(seq < total, "one synopsis per chunk");
            assert!(
                seq < acked + SEND_WINDOW as u64,
                "seq {seq} left the site with only {acked} acknowledged: window is {SEND_WINDOW}"
            );
            next_seq += 1;
        }
    }

    /// A 1-d site whose every chunk comes from a region of its own, so
    /// every chunk fails every fit test and sends one synopsis: `chunks`
    /// data frames in all.
    fn restless_site(chunks: u64, registry: &Arc<Registry>) -> SiteRun {
        use cludistream_gmm::{ChunkParams, Gaussian};
        use cludistream_linalg::Vector;
        use cludistream_rng::StdRng;

        let site = crate::config::Config {
            dim: 1,
            k: 1,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            seed: 41,
            ..Default::default()
        };
        let chunk = crate::remote::RemoteSite::new(site.clone()).expect("site config").chunk_size();
        let mut rng = StdRng::seed_from_u64(5);
        let mut emitted = 0usize;
        let stream = std::iter::from_fn(move || {
            let center = 60.0 * (emitted / chunk) as f64;
            emitted += 1;
            let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).expect("gaussian");
            Some(g.sample(&mut rng))
        });
        SiteRun::builder(0, Box::new(stream))
            .config(DriverConfig {
                site,
                // At most one chunk, so one frame, per step: a batch is
                // drained whole, as the simulator drains it, and the
                // window is looked at between batches.
                batch: chunk / 2,
                obs: Obs::from_registry(Arc::clone(registry)),
                ..Default::default()
            })
            .updates(chunks * chunk as u64)
            .socket(SocketConfig { connect_retry_ms: 10, ..SocketConfig::default() })
            .build()
            .expect("valid site run")
    }

    /// Invariants 1 and 2 of the socket sender. A parent that withholds
    /// every ACK for four RTOs sees the first `SEND_WINDOW` frames once
    /// each and nothing else — no timer re-sends on a live connection, and
    /// the site stops pulling records with the window full. Once it
    /// acknowledges, the rest flow under the same window and `Done`
    /// follows the last ACK.
    #[test]
    fn live_connection_never_resends_and_keeps_the_window() {
        const CHUNKS: u64 = 6;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let registry = Arc::new(Registry::new());
        let run = restless_site(CHUNKS, &registry);
        let site = thread::spawn(move || run_site(&addr, run));

        let (mut s, mut rx) = welcome_site0(&listener, false, 0);
        let hold = Duration::from_micros(4 * crate::protocol::RTO_US);
        let hold_until = Instant::now() + hold;
        s.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
        let mut held: Vec<Vec<u8>> = rx.pending.drain(..).collect();
        while Instant::now() < hold_until {
            held.extend(rx.reader.poll(&mut s).expect("poll").frames);
        }
        s.set_read_timeout(None).expect("blocking reads");
        let seqs: Vec<u64> =
            held.iter().filter(|f| !Control::is_control(f)).map(|f| data_seq(f)).collect();
        let window: Vec<u64> = (0..SEND_WINDOW as u64).collect();
        assert_eq!(seqs, window, "{hold:?} without an ACK: the window once, nothing re-sent");

        ack_one_by_one_until_done(&mut s, &mut rx, 0, SEND_WINDOW as u64, CHUNKS);
        send(&mut s, Control::Stop.encode().as_slice());
        let report = site.join().expect("site thread").expect("site run ok");
        assert_eq!(report.sent_messages, CHUNKS);
        assert_eq!(report.retransmitted_messages, 0);
        assert_eq!(report.resyncs, 0);
        assert!(
            registry.counter_value("uplink.window_stalls") >= 1,
            "the withheld ACKs must show as window stalls"
        );
    }

    /// Invariant 1's other half: a lost connection is the one thing that
    /// re-sends. The parent drops the socket with the window
    /// unacknowledged, then answers the resuming `Hello` with a `Welcome`
    /// whose ACK covers all but the last frame: exactly that tail comes
    /// again, once, and the round goes on from there.
    #[test]
    fn reconnect_resends_exactly_the_unacknowledged_tail() {
        const CHUNKS: u64 = 5;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let registry = Arc::new(Registry::new());
        let run = restless_site(CHUNKS, &registry);
        let site = thread::spawn(move || run_site(&addr, run));

        let (mut s, mut rx) = welcome_site0(&listener, false, 0);
        for expect in 0..SEND_WINDOW as u64 {
            let frame = loop {
                let frame = rx.next_payload(&mut s);
                if !Control::is_control(&frame) {
                    break frame;
                }
            };
            assert_eq!(data_seq(&frame), expect);
        }
        drop(s);

        let ack = SEND_WINDOW as u64 - 1;
        let (mut s, mut rx) = welcome_site0(&listener, true, ack);
        ack_one_by_one_until_done(&mut s, &mut rx, ack, ack, CHUNKS);
        send(&mut s, Control::Stop.encode().as_slice());
        let report = site.join().expect("site thread").expect("site run ok");
        assert_eq!(report.resyncs, 1);
        assert_eq!(report.retransmitted_messages, 1, "the tail past the Welcome's ACK, once");
        assert_eq!(report.sent_messages, CHUNKS + 1);
    }

    /// Invariant 3: a node with nothing to do sleeps. A site that is done
    /// and waiting for a withheld `Stop` — 300 ms under a 10 s heartbeat —
    /// wakes for what arrives and for nothing else (a polling loop turns
    /// about 15 times in that window, a spinning one 10⁵).
    #[test]
    fn idle_site_sleeps_until_stop() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let registry = Arc::new(Registry::new());
        let run = restless_site(0, &registry);
        let site = thread::spawn(move || run_site(&addr, run));

        let (mut s, mut rx) = welcome_site0(&listener, false, 0);
        rx.next_control(&mut s, |c| matches!(c, Control::Done { site: 0 }));
        thread::sleep(Duration::from_millis(300));
        send(&mut s, Control::Stop.encode().as_slice());
        site.join().expect("site thread").expect("site run ok");

        let waits = registry.histogram_snapshot("uplink.wait_us").expect("uplink.wait_us");
        let wakeups = waits.count;
        assert!((1..=4).contains(&wakeups), "{wakeups} wake-ups while waiting for Stop");
        assert!(waits.sum >= 250_000, "the wait for Stop was spent blocked, not polling");
    }

    /// Drives the whole telemetry plane with a hand-rolled site: the
    /// post-Welcome `ClockProbe` is echoed (fixing this site's offset),
    /// a `Telemetry` delta folds into the fleet registry with spans
    /// rebased and flight lines journaled, `Ping` comes back as `Pong`,
    /// and a bare `StatusRequest` connection — no handshake — scrapes
    /// the folded metrics as Prometheus text.
    #[test]
    fn telemetry_plane_folds_deltas_and_serves_status() {
        use cludistream_obs::catalogue::{EM_ESTEP_BLOCKS, HB_RTT_US, SITE_CHUNK};
        use cludistream_obs::{SpanId, TraceId};
        use cludistream_obs::{FleetAggregator, SpanRecord, TelemetryDelta};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sink = SharedBuf::default();
        let registry = Arc::new(Registry::with_journal(Box::new(sink.clone())));
        let fleet = Arc::new(FleetAggregator::new());
        let run = CoordinatorRun::builder(1)
            .obs(Obs::from_registry(Arc::clone(&registry)))
            .socket(SocketConfig {
                deadline: Some(Duration::from_secs(30)),
                ..SocketConfig::default()
            })
            .fleet(Arc::clone(&fleet))
            .build()
            .expect("valid coordinator run");
        let server = thread::spawn(move || serve(listener, run));

        let mut s = TcpStream::connect(addr).expect("connect");
        let mut rx = FrameRx::new();
        send(&mut s, hello(0, false).encode().as_slice());
        rx.next_control(&mut s, |c| matches!(c, Control::Welcome { .. }));

        // Clock sync: echo the probe with a site clock pinned at 0, so
        // the offset becomes the (non-negative) probe midpoint.
        let probe = rx.next_control(&mut s, |c| matches!(c, Control::ClockProbe { .. }));
        let Control::ClockProbe { t0_us } = probe else { unreachable!() };
        send(
            &mut s,
            Control::ClockEcho { site: 0, t0_us, site_us: 0 }.encode().as_slice(),
        );

        // Heartbeat RTT: the echo must carry our send stamp back.
        send(&mut s, Control::Ping { site: 0, sent_us: 777 }.encode().as_slice());
        let pong = rx.next_control(&mut s, |c| matches!(c, Control::Pong { .. }));
        assert_eq!(pong, Control::Pong { site: 0, echo_us: 777 });

        // One telemetry delta: a counter, a span starting at its local
        // t=10, and a flight-recorder line.
        let delta = TelemetryDelta {
            site: 0,
            local_now_us: 50,
            counters: vec![(EM_ESTEP_BLOCKS, 7)],
            observations: vec![(HB_RTT_US, vec![777])],
            spans: vec![SpanRecord {
                trace: TraceId(1),
                span: SpanId(1),
                parent: None,
                name: SITE_CHUNK,
                node: 0,
                start_us: 10,
                end_us: 40,
                cost_us: 30,
            }],
            flight: vec!["{\"t\":9,\"event\":\"ReMerge\",\"group\":1}".into()],
            ..TelemetryDelta::default()
        };
        send(
            &mut s,
            Control::Telemetry { site: 0, payload: delta.encode().into_vec() }
                .encode()
                .as_slice(),
        );

        // Scrape from a *second* connection that never says Hello: the
        // status endpoint must not require a handshake. The scrape also
        // acts as a barrier — it is answered by the same single-threaded
        // loop after the Telemetry frame above (same reader ordering is
        // not guaranteed across connections, so poll until visible).
        let deadline = Instant::now() + Duration::from_secs(10);
        let text = loop {
            let mut scraper = TcpStream::connect(addr).expect("scrape connect");
            let mut srx = FrameRx::new();
            send(&mut scraper, Control::StatusRequest.encode().as_slice());
            let reply =
                srx.next_control(&mut scraper, |c| matches!(c, Control::StatusReply { .. }));
            let Control::StatusReply { text } = reply else { unreachable!() };
            let text = String::from_utf8(text).expect("utf-8 exposition");
            if text.contains("em_estep_blocks") || Instant::now() > deadline {
                break text;
            }
            thread::sleep(Duration::from_millis(20));
        };
        assert!(
            text.contains("cludistream_em_estep_blocks_total{site=\"0\"} 7\n"),
            "per-site counter missing:\n{text}"
        );
        assert!(
            text.contains("cludistream_em_estep_blocks_total 7\n"),
            "fleet sum missing:\n{text}"
        );
        assert!(
            text.contains("cludistream_round_state{site=\"0\"} 1\n"),
            "round-state gauge missing (Joined=1):\n{text}"
        );
        assert!(
            text.contains("cludistream_hb_rtt_us_count{site=\"0\"} 1\n"),
            "hb.rtt_us summary missing:\n{text}"
        );

        // The span was rebased by the Cristian offset (midpoint - 0).
        let offset = fleet.offset(0);
        assert!(offset >= 0, "site clock pinned at 0 gives a non-negative offset");
        let spans = fleet.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_us, 10 + offset as u64, "start rebased");
        assert_eq!(spans[0].end_us, 40 + offset as u64, "end rebased");

        send(&mut s, Control::Done { site: 0 }.encode().as_slice());
        let report = server.join().expect("serve thread").expect("serve succeeds");
        assert!(report.evicted.is_empty());
        registry.flush_journal().expect("flush");
        let journal =
            String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf-8");
        assert!(
            journal.lines().any(|l| l.contains("\"event\":\"FlightRecorder\"")
                && l.contains("\\\"event\\\":\\\"ReMerge\\\"")),
            "flight line not replayed into the coordinator journal:\n{journal}"
        );
    }
}
