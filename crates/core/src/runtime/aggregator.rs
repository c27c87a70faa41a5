//! The socket-runtime aggregator role: `cludistream aggregator` in
//! library form.
//!
//! [`run_aggregator`] plants an [`AggregatorEngine`] between a fan-in of
//! child connections (sites or lower-level aggregators, served exactly
//! like [`super::serve`] serves sites) and one upward connection to a
//! parent (dialled exactly like [`super::run_site`] dials a
//! coordinator). Downward it terminates the children's go-back-N
//! channels, answers their handshakes, heartbeats and scrapes, and folds
//! their synopses into the local shard coordinator; upward it behaves as
//! site `index`: one reduced sequenced `NewModel` per flush interval,
//! resynced on reconnect. Both directions feed one event queue and the
//! node is one loop over it: a child's frame reaches the engine as soon
//! as its reader has it, and an aggregator with quiet children sleeps
//! until its next deadline (flush, eviction horizon, heartbeat).
//!
//! Durability is deliberately soft-state: the aggregator never
//! checkpoints. If the process dies, its children reconnect to the
//! replacement with `resume`, the replacement ACKs from zero, and the
//! shard re-converges from the children's *next* uploads — meanwhile the
//! parent keeps the last summary this aggregator forwarded (same-id
//! replace means stale-but-valid, never absent). The authoritative
//! crash-recovery state lives at the root and the sites, where it
//! already existed before the tier.

use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::aggregator::{AggregatorConfig, AggregatorEngine};
use crate::coordinator::CoordinatorConfig;
use crate::driver::{DeliveryConfig, DeliveryMode};
use crate::engine::UpChannel;
use crate::error::CludiError;
use crate::runtime::control::Control;
use crate::runtime::downlink::{Downlink, NetEvent, Shard};
use crate::runtime::tcp::{validate_socket, SocketConfig};
use crate::runtime::uplink::{Step, Uplink, Work};
use crate::serving::ModelSnapshot;
use cludistream_obs::{FleetAggregator, Obs};
use cludistream_simnet::CommStats;
use cludistream_wire::ByteBuf;

/// Everything one socket aggregator needs to relay a round.
///
/// Construct it with [`AggregatorRun::builder`]; the fields are private,
/// so the builder's validation is the only way in.
pub struct AggregatorRun {
    index: u32,
    child_base: u32,
    children: usize,
    epsilon: f64,
    coordinator: CoordinatorConfig,
    dim: u32,
    obs: Obs,
    socket: SocketConfig,
    flush_interval_us: u64,
    telemetry: bool,
    fleet: Option<Arc<FleetAggregator>>,
}

impl AggregatorRun {
    /// Starts a builder for the aggregator serving child sites
    /// `[child_base, child_base + children)` and appearing at its parent
    /// as site `index`.
    pub fn builder(index: u32, child_base: u32, children: usize) -> AggregatorRunBuilder {
        AggregatorRunBuilder(AggregatorRun {
            index,
            child_base,
            children,
            epsilon: 0.0,
            coordinator: CoordinatorConfig {
                merge_log_cap: Some(64),
                ..CoordinatorConfig::default()
            },
            dim: 1,
            obs: Obs::noop(),
            socket: SocketConfig::default(),
            flush_interval_us: 50_000,
            telemetry: false,
            fleet: None,
        })
    }
}

/// Builder for [`AggregatorRun`]. Defaults mirror the simnet tree
/// runner: ε = 0 (forward on any change), 50 ms flush interval, shard
/// `merge_log_cap = Some(64)`, default socket tuning. The upward channel
/// is always reliable: a reconnect needs sequence state to resync.
pub struct AggregatorRunBuilder(AggregatorRun);

impl AggregatorRunBuilder {
    /// Sets the upload-on-change suppression threshold (default 0.0).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.0.epsilon = epsilon;
        self
    }

    /// Sets the shard coordinator's knobs. Its covariance kind is also the
    /// one every child (and the parent) must agree on at the handshake.
    pub fn coordinator(mut self, coordinator: CoordinatorConfig) -> Self {
        self.0.coordinator = coordinator;
        self
    }

    /// Sets the record dimension every child (and the parent) must agree
    /// on (default 1).
    pub fn dim(mut self, dim: u32) -> Self {
        self.0.dim = dim;
        self
    }

    /// Attaches a telemetry observer (default: no-op).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.0.obs = obs;
        self
    }

    /// Overrides the socket tuning (both directions: the downward
    /// `heartbeat_us`/`timeout_us` pair is what this node's `Welcome`
    /// advertises to its children).
    pub fn socket(mut self, socket: SocketConfig) -> Self {
        self.0.socket = socket;
        self
    }

    /// Sets how long child traffic batches before one reduced update
    /// goes upward, microseconds (default 50 ms).
    pub fn flush_interval_us(mut self, flush_interval_us: u64) -> Self {
        self.0.flush_interval_us = flush_interval_us;
        self
    }

    /// Opts into shipping this node's own registry deltas upward as
    /// `Telemetry` frames on the heartbeat cadence, so the root's fleet
    /// registry shows `site<index>.agg.*` series for this subtree.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.0.telemetry = telemetry;
        self
    }

    /// Opts into the downward half of the fleet telemetry plane: clock
    /// probes after every child `Welcome`, folding the children's
    /// `Telemetry` deltas into this registry, and answering
    /// `StatusRequest` scrapes with per-subtree Prometheus text (child
    /// series keep their global `site<N>.` labels).
    pub fn fleet(mut self, fleet: Arc<FleetAggregator>) -> Self {
        self.0.fleet = Some(fleet);
        self
    }

    /// Validates and produces the run.
    pub fn build(self) -> Result<AggregatorRun, CludiError> {
        let run = self.0;
        if run.children == 0 {
            return Err(CludiError::InvalidConfig {
                name: "children",
                constraint: "children >= 1",
            });
        }
        if run.dim == 0 {
            return Err(CludiError::InvalidConfig { name: "dim", constraint: "dim >= 1" });
        }
        if run.flush_interval_us == 0 {
            return Err(CludiError::InvalidConfig {
                name: "flush_interval_us",
                constraint: "flush_interval_us >= 1",
            });
        }
        if !run.epsilon.is_finite() || run.epsilon < 0.0 {
            return Err(CludiError::InvalidConfig {
                name: "epsilon",
                constraint: "finite and >= 0",
            });
        }
        validate_socket(&run.socket)?;
        Ok(run)
    }
}

/// What one socket aggregator did, returned by [`run_aggregator`].
#[derive(Debug)]
pub struct AggregatorReport {
    /// Local (shard) group count at the end of the round.
    pub groups: usize,
    /// Reduced updates sent upward.
    pub flushes: u64,
    /// Flush attempts suppressed as unchanged.
    pub flushes_suppressed: u64,
    /// Child messages folded into the shard coordinator.
    pub messages_applied: u64,
    /// Shard bookkeeping rows (registry + retained merge log) kept out
    /// of the root by the fan-in boundary.
    pub event_table_entries: usize,
    /// Frames put on the upward wire (including retransmissions).
    pub sent_messages: u64,
    /// Bytes put on the upward wire (payloads, no length prefix).
    pub sent_bytes: u64,
    /// Upward frames re-sent after a reconnect to the parent.
    pub retransmitted_messages: u64,
    /// Upward bytes re-sent after a reconnect to the parent.
    pub retransmitted_bytes: u64,
    /// ACK frames sent downward to children.
    pub ack_messages: u64,
    /// Bytes of ACK frames sent downward.
    pub ack_bytes: u64,
    /// Duplicate or stale child frames discarded by the inboxes.
    pub duplicates_discarded: u64,
    /// Malformed or out-of-range child frames rejected by the engine.
    pub decode_errors: u64,
    /// Children (global site indices) that ended the round evicted.
    pub evicted: Vec<u32>,
    /// Times this node reconnected to its parent and resynced.
    pub resyncs_up: u64,
    /// Child reconnect-resyncs served.
    pub resyncs_down: u64,
    /// Per-second downward communication accounting (child data in,
    /// ACKs out), child slots as nodes `0..children`, this node as node
    /// `children`.
    pub comm: CommStats,
}

impl Shard for AggregatorEngine {
    fn on_wire(&mut self, payload: &ByteBuf) -> Option<ByteBuf> {
        AggregatorEngine::on_wire(self, payload)
    }

    fn cumulative(&self, local: usize) -> u64 {
        self.child_cumulative(local)
    }

    /// The *shard* model: what this subtree has agreed on, before the
    /// root's cross-shard merge.
    fn snapshot_bytes(&self) -> Vec<u8> {
        ModelSnapshot::capture(self.coordinator())
            .map(|snapshot| snapshot.encode().into_vec())
            .unwrap_or_default()
    }
}

/// An aggregator's work between events: serve the children, and forward
/// one reduced update when the shard went dirty and the flush interval
/// elapsed (or the children are all done). All of it is driven by events
/// and deadlines, so no step leaves it busy.
struct Relay {
    down: Downlink,
    agg: AggregatorEngine,
    up: UpChannel,
    flush_interval: Duration,
    last_flush: Instant,
    deadline: Option<Instant>,
}

impl Work for Relay {
    fn channel(&mut self) -> &mut UpChannel {
        &mut self.up
    }

    fn on_event(&mut self, event: NetEvent) {
        self.down.on_event(&mut self.agg, event);
    }

    /// The earliest of: a child falling silent past the timeout, the
    /// run's deadline, and — while something is batching — the next flush.
    fn deadline(&self) -> Option<Instant> {
        let flush =
            if self.agg.dirty() { self.last_flush.checked_add(self.flush_interval) } else { None };
        [self.down.next_eviction(), self.deadline, flush].into_iter().flatten().min()
    }

    fn step(&mut self, send: &mut dyn FnMut(ByteBuf)) -> Result<Step, CludiError> {
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            return Err(CludiError::Net("aggregator deadline exceeded".into()));
        }
        self.down.evict();
        // Every child done (or evicted): flush whatever is still batching
        // without waiting out the interval.
        let finished = self.down.machine.finished();
        if self.agg.dirty() && (finished || self.last_flush.elapsed() >= self.flush_interval) {
            self.last_flush = Instant::now();
            if let Some(msg) = self.agg.flush() {
                self.up.send(msg, send);
            }
        }
        Ok(if finished && !self.agg.dirty() { Step::Exhausted } else { Step::Idle })
    }

    /// Propagates the round end to the subtree before this node tears
    /// down its own sockets.
    fn on_stop(&mut self) {
        self.down.broadcast(&Control::Stop);
    }
}

/// Relays one clustering round: serves `run.children` children on
/// `listener` exactly like [`super::serve`] serves sites, while playing
/// site `run.index` toward the parent at `parent_addr` exactly like
/// [`super::run_site`] — reduced updates up, `Stop` propagated down.
///
/// The caller binds the listener (so it can publish the ephemeral port
/// before any child connects) and this function consumes it.
pub fn run_aggregator(
    parent_addr: &str,
    listener: TcpListener,
    run: AggregatorRun,
) -> Result<AggregatorReport, CludiError> {
    let AggregatorRun { index, child_base, children, dim, obs, socket, .. } = run;
    let cov = run.coordinator.covariance;
    let agg = AggregatorEngine::new(
        AggregatorConfig {
            index,
            child_base,
            children,
            epsilon: run.epsilon,
            coordinator: run.coordinator,
        },
        obs.clone(),
    )?;
    // One queue for the whole node: the parent's reader and the
    // children's readers wake the same loop.
    let (events_tx, events) = mpsc::channel();
    let down = Downlink::new(
        listener,
        events_tx.clone(),
        child_base,
        children,
        dim,
        cov,
        obs.clone(),
        socket,
        run.fleet,
    )?;
    let mut up = Uplink {
        parent_addr,
        role: "aggregator",
        index,
        dim,
        cov,
        obs: obs.clone(),
        socket,
        telemetry: run.telemetry,
        // One clock per node: the children's Cristian probes and this
        // node's own echoes upward read the same epoch.
        epoch: down.epoch,
        events,
        events_tx,
        sent_messages: 0,
        sent_bytes: 0,
        resyncs: 0,
    };
    let deadline = socket.deadline.and_then(|d| down.epoch.checked_add(d));
    let mut relay = Relay {
        down,
        agg,
        // The RTO pair is the simulator's: a socket re-sends only after a
        // reconnect, so only the mode is read here.
        up: UpChannel::new(
            index,
            cov,
            obs,
            DeliveryConfig { mode: DeliveryMode::Reliable },
        ),
        flush_interval: Duration::from_micros(run.flush_interval_us),
        last_flush: Instant::now(),
        deadline,
    };
    let outcome = up.run(&mut relay);
    relay.down.close();
    outcome?;

    let Relay { down, agg, up: channel, .. } = relay;
    Ok(AggregatorReport {
        groups: agg.group_count(),
        flushes: agg.flushes(),
        flushes_suppressed: agg.flushes_suppressed(),
        messages_applied: agg.messages_applied(),
        event_table_entries: agg.event_table_entries(),
        sent_messages: up.sent_messages,
        sent_bytes: up.sent_bytes,
        retransmitted_messages: channel.retransmitted_messages,
        retransmitted_bytes: channel.retransmitted_bytes,
        ack_messages: agg.ack_messages(),
        ack_bytes: agg.ack_bytes(),
        duplicates_discarded: agg.duplicates_discarded(),
        decode_errors: agg.decode_errors(),
        evicted: down.evicted(),
        resyncs_up: up.resyncs,
        resyncs_down: down.resyncs,
        comm: down.comm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::driver::{DriverConfig, RecordStream};
    use crate::runtime::control::{RejectCode, PROTOCOL_VERSION};
    use crate::runtime::downlink::write_payload;
    use crate::runtime::tcp::{run_site, serve, CoordinatorRun, SiteRun};
    use cludistream_gmm::CovarianceType;
    use cludistream_wire::ByteReader;
    use std::net::TcpStream;
    use std::thread;
    use cludistream_gmm::{ChunkParams, Gaussian};
    use cludistream_linalg::Vector;
    use cludistream_rng::StdRng;

    fn stable_stream(center: f64, seed: u64) -> RecordStream {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).expect("gaussian");
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(std::iter::repeat_with(move || g.sample(&mut rng)))
    }

    fn site_config() -> DriverConfig {
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

    fn loaded_host_socket() -> SocketConfig {
        SocketConfig {
            heartbeat_us: 50_000,
            timeout_us: 2_000_000,
            deadline: Some(Duration::from_secs(60)),
            ..SocketConfig::default()
        }
    }

    #[test]
    fn builder_validation() {
        assert!(AggregatorRun::builder(0, 0, 0).build().is_err(), "zero children");
        assert!(AggregatorRun::builder(0, 0, 1).dim(0).build().is_err(), "zero dim");
        assert!(
            AggregatorRun::builder(0, 0, 1).flush_interval_us(0).build().is_err(),
            "zero flush interval"
        );
        assert!(AggregatorRun::builder(0, 0, 1).epsilon(-1.0).build().is_err(), "negative ε");
        assert!(AggregatorRun::builder(2, 10, 5).build().is_ok());
    }

    /// The full 4-process shape over loopback TCP: a root coordinator
    /// serving one "site" (the aggregator), the aggregator serving two
    /// real site loops from well-separated regions, `Stop` propagating
    /// root → aggregator → sites. The root must learn both regions
    /// while only ever hearing from the aggregator.
    #[test]
    fn aggregator_relays_two_sites_to_root_over_sockets() {
        let cfg = site_config();
        let chunk = crate::remote::RemoteSite::new(cfg.site.clone())
            .expect("site config")
            .chunk_size() as u64;

        let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind root");
        let root_addr = root_listener.local_addr().expect("root addr").to_string();
        let root = thread::spawn(move || {
            let run = CoordinatorRun::builder(1)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("root run");
            serve(root_listener, run)
        });

        let agg_listener = TcpListener::bind("127.0.0.1:0").expect("bind aggregator");
        let agg_addr = agg_listener.local_addr().expect("agg addr").to_string();
        let agg = thread::spawn(move || {
            let run = AggregatorRun::builder(0, 0, 2)
                .dim(1)
                .flush_interval_us(20_000)
                .socket(loaded_host_socket())
                .build()
                .expect("aggregator run");
            run_aggregator(&root_addr, agg_listener, run)
        });

        let sites: Vec<_> = (0..2u32)
            .map(|i| {
                let addr = agg_addr.clone();
                let cfg = site_config();
                thread::spawn(move || {
                    let run = SiteRun::builder(
                        i as usize,
                        stable_stream(if i == 0 { 0.0 } else { 80.0 }, 100 + u64::from(i)),
                    )
                    .config(cfg)
                    .updates(3 * chunk)
                    .socket(loaded_host_socket())
                    .build()
                    .expect("site run");
                    run_site(&addr, run)
                })
            })
            .collect();

        for (i, s) in sites.into_iter().enumerate() {
            let report = s.join().expect("site thread").expect("site run ok");
            assert!(report.stats.records >= 3 * chunk, "site {i} drained its stream");
            assert_eq!(report.resyncs, 0, "site {i} never had to resync");
        }
        let agg_report = agg.join().expect("aggregator thread").expect("aggregator run ok");
        let root_report = root.join().expect("root thread").expect("root run ok");

        // Two well-separated regions resolve as two groups at the shard,
        // and the root sees exactly that summary — one registry entry,
        // both regions.
        assert_eq!(agg_report.groups, 2, "shard resolved both regions");
        assert_eq!(root_report.groups, 2, "root learned both regions from one feed");
        assert!(root_report.global.is_some());
        assert!(agg_report.flushes >= 1, "at least one reduced update went up");
        assert!(agg_report.messages_applied >= 2, "both children reported");
        assert!(agg_report.ack_messages >= 2, "both child channels were ACKed");
        assert!(agg_report.evicted.is_empty());
        assert_eq!(agg_report.resyncs_up, 0);
        assert_eq!(agg_report.resyncs_down, 0);
        assert_eq!(agg_report.decode_errors, 0);
        // The fan-in actually reduced: the root applied fewer messages'
        // worth of traffic than the aggregator absorbed, and its inbox
        // count is the flush count, not the site message count.
        assert!(
            agg_report.flushes <= agg_report.messages_applied,
            "flushes {} must not exceed absorbed messages {}",
            agg_report.flushes,
            agg_report.messages_applied
        );
    }

    /// A child outside `[child_base, child_base + children)` must be
    /// rejected with the same `SiteIndex` code a coordinator uses, and
    /// the round must be unaffected.
    #[test]
    fn out_of_range_child_is_rejected() {
        use cludistream_wire::framing::FrameReader;

        let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind root");
        let root_addr = root_listener.local_addr().expect("root addr").to_string();
        let root = thread::spawn(move || {
            let run = CoordinatorRun::builder(1)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("root run");
            serve(root_listener, run)
        });

        let agg_listener = TcpListener::bind("127.0.0.1:0").expect("bind aggregator");
        let agg_addr = agg_listener.local_addr().expect("agg addr").to_string();
        let agg = thread::spawn(move || {
            let run = AggregatorRun::builder(0, 4, 2)
                .dim(1)
                .socket(loaded_host_socket())
                .build()
                .expect("aggregator run");
            run_aggregator(&root_addr, agg_listener, run)
        });

        // Global site 3 is below child_base 4: rejected.
        let bad = TcpStream::connect(&agg_addr).expect("connect");
        let hello = Control::Hello {
            version: PROTOCOL_VERSION,
            site: 3,
            dim: 1,
            cov: CovarianceType::Full,
            resume: false,
        };
        write_payload(&bad, hello.encode().as_slice()).expect("hello");
        let mut fr = FrameReader::new();
        let reject = loop {
            let polled = fr.poll(&mut { &bad }).expect("poll");
            if let Some(frame) = polled.frames.into_iter().next() {
                break Control::decode(&mut ByteReader::new(&frame)).expect("control");
            }
            assert!(!polled.eof, "closed without a Reject");
        };
        let Control::Reject { code: RejectCode::SiteIndex, expect, got } = reject else {
            panic!("expected a SiteIndex Reject, got {reject:?}");
        };
        assert_eq!(expect, 6, "exclusive upper bound of the child range");
        assert_eq!(got, 3);
        drop(bad);

        // The in-range children finish the round normally.
        let cfg = site_config();
        let chunk = crate::remote::RemoteSite::new(cfg.site.clone())
            .expect("site config")
            .chunk_size() as u64;
        let sites: Vec<_> = (4..6u32)
            .map(|i| {
                let addr = agg_addr.clone();
                let cfg = site_config();
                thread::spawn(move || {
                    let run = SiteRun::builder(i as usize, stable_stream(0.0, u64::from(i)))
                        .config(cfg)
                        .updates(chunk)
                        .socket(loaded_host_socket())
                        .build()
                        .expect("site run");
                    run_site(&addr, run)
                })
            })
            .collect();
        for s in sites {
            s.join().expect("site thread").expect("site run ok");
        }
        let agg_report = agg.join().expect("aggregator thread").expect("aggregator run ok");
        let root_report = root.join().expect("root thread").expect("root run ok");
        assert_eq!(agg_report.groups, 1);
        assert_eq!(root_report.groups, 1);
        assert!(agg_report.evicted.is_empty(), "the rejected dialer never joined");
    }
}
