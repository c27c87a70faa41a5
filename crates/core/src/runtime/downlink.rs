//! The downward half of a socket node: serve a contiguous range of
//! children.
//!
//! A [`Downlink`] owns the listener's acceptor and per-connection reader
//! threads, the live connections, the [`RoundMachine`] and the
//! communication accounting for the child range `[base, base + count)`.
//! It answers everything a child (or a bare-connection scraper) can say —
//! `Hello` validation and `Welcome`/`Start`, `Ping`, `ClockEcho`,
//! `Telemetry`, status/snapshot/health requests, `Done`, data frames →
//! ACK — and evicts children silent past the timeout. The root
//! coordinator ([`super::serve`]) is a Downlink with `base = 0`; an
//! aggregator ([`super::run_aggregator`]) feeds one from its upward loop.
//!
//! What a root and an aggregator answer *differently* sits behind the
//! [`Shard`] trait and nowhere else. Wire indices, journal `site` fields
//! and `site<N>.round_state` gauges are always global; inbox slots, the
//! round machine and the [`CommStats`] node ids are local (`site - base`,
//! with this node as id `count`).
//!
//! Threading: the acceptor thread blocks in `accept` and hands each
//! connection to a reader thread blocking in `read`; both feed
//! [`NetEvent`]s into the node's one event queue, and the one thread that
//! owns the queue's receiving end hands them to [`Downlink::on_event`].
//! Nothing here polls or sleeps: a frame wakes its reader, the reader
//! wakes the node. Keeping the engine single-threaded preserves the
//! telemetry call order the golden fixtures depend on.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::CludiError;
use crate::runtime::control::{Control, HealthAlert, RejectCode, PROTOCOL_VERSION};
use crate::runtime::liveness::RoundMachine;
use crate::runtime::tcp::SocketConfig;
use cludistream_gmm::CovarianceType;
use cludistream_obs::{catalogue, net, Event, FleetAggregator, Obs, Recorder, TelemetryDelta};
use cludistream_simnet::{CommStats, NodeId};
use cludistream_wire::framing::{write_frame, FrameReader, MAX_FRAME_BYTES};
use cludistream_wire::{ByteBuf, ByteReader};

/// What differs between the nodes a [`Downlink`] can serve for: the
/// engine behind the data plane and the three answers that read it.
pub(crate) trait Shard {
    /// Processes one raw data-plane payload; returns the encoded
    /// cumulative ACK to answer with, when the payload was sequenced.
    fn on_wire(&mut self, payload: &ByteBuf) -> Option<ByteBuf>;

    /// Cumulative ACK position of child slot `local`: where a resuming
    /// child restarts its go-back-N window.
    fn cumulative(&self, local: usize) -> u64;

    /// The `SnapshotReply` payload; empty means "no model yet".
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// The `HealthReply` verdicts, evaluated against the fleet registry
    /// (liveness gauges already refreshed). Alert rules live at the root;
    /// the default answers empty so monitors pointed at a shard degrade
    /// gracefully.
    fn health(&self, _fleet: &FleetAggregator) -> Vec<HealthAlert> {
        Vec::new()
    }
}

/// What the acceptor and reader threads feed a node's event queue. Every
/// event names its connection, so the node can tell a child's frame from
/// its parent's and a dead connection's last words from the live one's.
pub(crate) enum NetEvent {
    /// A connection arrived; `writer` is the write half (a
    /// `try_clone`), `cap` the frame cap its reader reads under.
    Accepted { conn: u64, writer: TcpStream, cap: Arc<AtomicUsize> },
    /// One length-prefixed frame's payload arrived on `conn`.
    Frame { conn: u64, payload: Vec<u8> },
    /// The connection closed or its reader failed.
    Closed { conn: u64 },
}

impl NetEvent {
    /// The connection the event happened on.
    pub(crate) fn conn(&self) -> u64 {
        match self {
            NetEvent::Accepted { conn, .. }
            | NetEvent::Frame { conn, .. }
            | NetEvent::Closed { conn } => *conn,
        }
    }
}

/// Blocks until the next event or until `until` passes (forever when
/// `None`); `Ok(None)` is the deadline.
pub(crate) fn next_event(
    events: &mpsc::Receiver<NetEvent>,
    until: Option<Instant>,
) -> Result<Option<NetEvent>, CludiError> {
    let closed = || CludiError::Net("node event queue closed".into());
    match until {
        None => events.recv().map(Some).map_err(|_| closed()),
        Some(until) => match events.recv_timeout(until.saturating_duration_since(Instant::now())) {
            Ok(event) => Ok(Some(event)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(closed()),
        },
    }
}

/// The longest frame a connection may send before it is welcomed: room
/// for every control frame a fresh connection may send (`Hello` and the
/// status, snapshot and health requests, 13 bytes at most) with space to
/// grow, so that four bytes of length prefix from a connection that never
/// said `Hello` buy no buffer of [`MAX_FRAME_BYTES`]. A stray site frame
/// that fits (a small `Telemetry`) is counted and dropped as any stray is.
pub(crate) const PRE_HELLO_MAX_FRAME_BYTES: usize = 128;

/// A live connection as the pumping thread sees it.
struct Conn {
    writer: TcpStream,
    /// Local child slot, once the connection has said `Hello`.
    child: Option<usize>,
    /// The frame cap its reader reads under: raised to [`MAX_FRAME_BYTES`]
    /// when the connection is welcomed.
    cap: Arc<AtomicUsize>,
}

/// Writes one length-prefixed frame to a blocking stream.
pub(crate) fn write_payload(stream: &TcpStream, payload: &[u8]) -> std::io::Result<()> {
    write_frame(&mut { stream }, payload)
}

/// Sends a control frame, counting it under the `net.ctrl_*` counters.
/// Returns `false` on I/O failure (the caller cuts the connection or
/// reconnects).
pub(crate) fn send_control(stream: &TcpStream, obs: &Obs, frame: &Control) -> bool {
    let bytes = frame.encode();
    net::on_ctrl_send(obs, bytes.len() as u64);
    write_payload(stream, bytes.as_slice()).is_ok()
}

/// Blocking per-connection reader: length-prefixed frames in, queue
/// events out, `Closed` on EOF or error — a frame declared past `cap`
/// among them. Shutting the socket down from another thread is how a
/// node ends it.
pub(crate) fn read_loop(
    conn: u64,
    mut stream: TcpStream,
    cap: &AtomicUsize,
    tx: &mpsc::Sender<NetEvent>,
) {
    let mut fr = FrameReader::new();
    fr.set_limit(cap.load(Ordering::Acquire));
    loop {
        if fr.limit() < MAX_FRAME_BYTES {
            // Not welcomed yet when last read: wait for the next bytes
            // before reading the cap again. The pump raises it before it
            // sends `Welcome`, so whatever a peer sends once welcomed is
            // framed under the raised cap.
            let _ = stream.peek(&mut [0u8; 1]);
            fr.set_limit(cap.load(Ordering::Acquire));
        }
        match fr.poll(&mut stream) {
            Ok(polled) => {
                for payload in polled.frames {
                    if tx.send(NetEvent::Frame { conn, payload }).is_err() {
                        return;
                    }
                }
                if polled.eof {
                    let _ = tx.send(NetEvent::Closed { conn });
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(NetEvent::Closed { conn });
                return;
            }
        }
    }
}

/// The serving half of a socket node (see the module docs).
pub(crate) struct Downlink {
    done: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
    /// Where the acceptor is blocked; [`Downlink::close`] dials it.
    listening_on: SocketAddr,
    conns: HashMap<u64, Conn>,
    /// Live connection per local child slot (newest wins).
    child_conn: Vec<Option<u64>>,
    /// Round and liveness state over the local child slots.
    pub machine: RoundMachine,
    /// Per-second accounting: child data in, ACKs out.
    pub comm: CommStats,
    /// Reconnect-resyncs served.
    pub resyncs: u64,
    base: u32,
    dim: u32,
    cov: CovarianceType,
    obs: Obs,
    socket: SocketConfig,
    fleet: Option<Arc<FleetAggregator>>,
    /// The node's reference clock: journal stamps, Cristian probes and the
    /// `socket.deadline` all count from here.
    pub epoch: Instant,
}

impl Downlink {
    /// Starts accepting on `listener` for the children
    /// `[base, base + count)`, feeding `events` — the node's queue, whose
    /// receiving end the caller keeps. With a `fleet`, the telemetry plane
    /// is on: clock probes after every `Welcome`, deltas folded into the
    /// fleet registry, journal events stamped with microseconds since
    /// `epoch`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        listener: TcpListener,
        events: mpsc::Sender<NetEvent>,
        base: u32,
        count: usize,
        dim: u32,
        cov: CovarianceType,
        obs: Obs,
        socket: SocketConfig,
        fleet: Option<Arc<FleetAggregator>>,
    ) -> Result<Downlink, CludiError> {
        let listening_on = listener.local_addr()?;
        let done = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut next_conn = 0u64;
                // Blocks in `accept`; the connection that wakes it after
                // `done` is `close` dialling in, not a child.
                while let Ok((stream, _)) = listener.accept() {
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn = next_conn;
                    next_conn += 1;
                    let Ok(writer) = stream.try_clone() else { continue };
                    let cap = Arc::new(AtomicUsize::new(PRE_HELLO_MAX_FRAME_BYTES));
                    let accepted = NetEvent::Accepted { conn, writer, cap: Arc::clone(&cap) };
                    if events.send(accepted).is_err() {
                        return;
                    }
                    let events = events.clone();
                    thread::spawn(move || read_loop(conn, stream, &cap, &events));
                }
            })
        };
        Ok(Downlink {
            done,
            acceptor: Some(acceptor),
            listening_on,
            conns: HashMap::new(),
            child_conn: vec![None; count],
            machine: RoundMachine::new(count, socket.timeout_us),
            comm: CommStats::new(),
            resyncs: 0,
            base,
            dim,
            cov,
            obs,
            socket,
            fleet,
            epoch: Instant::now(),
        })
    }

    /// Microseconds since this node started serving.
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Handles one event from an accepted connection.
    pub(crate) fn on_event(&mut self, shard: &mut impl Shard, event: NetEvent) {
        match event {
            NetEvent::Accepted { conn, writer, cap } => {
                self.conns.insert(conn, Conn { writer, child: None, cap });
            }
            NetEvent::Frame { conn, payload } => {
                let now_us = self.stamp();
                self.on_frame(shard, &payload, conn, now_us);
            }
            NetEvent::Closed { conn } => {
                if let Some(child) = self.conns.remove(&conn).and_then(|c| c.child) {
                    if self.child_conn[child] == Some(conn) {
                        self.child_conn[child] = None;
                    }
                }
            }
        }
    }

    /// When the next child falls silent past the timeout unless it speaks
    /// first: the latest a node with nothing else to do may sleep before
    /// calling [`Downlink::evict`].
    pub(crate) fn next_eviction(&self) -> Option<Instant> {
        let horizon_us = self.machine.next_eviction_us()?;
        self.epoch.checked_add(Duration::from_micros(horizon_us))
    }

    /// Evicts children silent past the timeout and cuts their sockets.
    pub(crate) fn evict(&mut self) {
        let now_us = self.stamp();
        for (child, silent_us) in self.machine.evictions(now_us) {
            let site = self.base + child as u32;
            self.obs.event(&Event::SiteEvicted { site, silent_us });
            self.obs.counter(catalogue::COORD_EVICT, 1);
            if let Some(c) = self.child_conn[child].take().and_then(|id| self.conns.get(&id)) {
                let _ = c.writer.shutdown(Shutdown::Both);
            }
        }
    }

    /// Reads the clock and, with a fleet, stamps journal events and spans
    /// with it (the fleet's reference clock). Skipped without a fleet so
    /// the shared-registry `TcpTransport` keeps `t: 0` stamps.
    fn stamp(&self) -> u64 {
        let now_us = self.now_us();
        if self.fleet.is_some() {
            self.obs.set_sim_time(now_us);
        }
        now_us
    }

    /// Sends `frame` on every live connection (`Stop` at round end).
    pub(crate) fn broadcast(&self, frame: &Control) {
        for c in self.conns.values() {
            send_control(&c.writer, &self.obs, frame);
        }
    }

    /// Tears down: stop accepting, cut every socket so blocked readers
    /// exit, and collect the acceptor (reader threads die on their own).
    pub(crate) fn close(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        for c in self.conns.values() {
            let _ = c.writer.shutdown(Shutdown::Both);
        }
        // The acceptor is blocked in `accept`: dial it so it wakes, sees
        // `done` and returns. A failed dial means the listener is already
        // gone and the thread with it — or, on a host that cannot reach
        // its own listener, that joining would hang the teardown.
        let woken = TcpStream::connect(self.listening_on).is_ok();
        if let Some(acceptor) = self.acceptor.take().filter(|_| woken) {
            let _ = acceptor.join();
        }
    }

    /// Children (global indices) currently evicted.
    pub(crate) fn evicted(&self) -> Vec<u32> {
        self.machine.evicted_sites().into_iter().map(|s| s + self.base).collect()
    }

    /// The local slot of global child index `site`, when in range.
    fn local(&self, site: u32) -> Option<usize> {
        let local = site.checked_sub(self.base)? as usize;
        (local < self.child_conn.len()).then_some(local)
    }

    /// Refreshes the liveness gauges in the fleet registry, so a status
    /// render and an alert evaluation read the same round state.
    fn refresh_liveness(&self, fleet: &FleetAggregator) {
        for (s, &state) in self.machine.states().iter().enumerate() {
            let code = f64::from(RoundMachine::state_code(state));
            fleet.set_site_gauge(self.base + s as u32, catalogue::ROUND_STATE, code);
        }
        let started = if self.machine.started() { 1.0 } else { 0.0 };
        fleet.registry().gauge(catalogue::COORD_ROUND_STARTED, started);
    }

    /// Handles one inbound payload: handshake and liveness for control
    /// frames, shard + ACK for data frames.
    fn on_frame(&mut self, shard: &mut impl Shard, payload: &[u8], conn: u64, now_us: u64) {
        if !Control::is_control(payload) {
            // Data plane: only handshaken connections may speak it.
            let Some(child) = self.conns.get(&conn).and_then(|c| c.child) else { return };
            let hub = NodeId(self.child_conn.len());
            self.machine.heard(child, now_us);
            self.comm.record(now_us, NodeId(child), hub, payload.len());
            let mut buf = ByteBuf::with_capacity(payload.len());
            buf.extend_from_slice(payload);
            if let Some(ack) = shard.on_wire(&buf) {
                net::on_send(&self.obs, ack.len() as u64);
                self.comm.record(now_us, hub, NodeId(child), ack.len());
                if let Some(c) = self.conns.get(&conn) {
                    if write_payload(&c.writer, ack.as_slice()).is_err() {
                        let _ = c.writer.shutdown(Shutdown::Both);
                    }
                }
            }
            return;
        }
        let Ok(frame) = Control::decode(&mut ByteReader::new(payload)) else { return };
        if let Control::Hello { version, site, dim, cov, resume } = frame {
            self.on_hello(shard, version, site, dim, cov, resume, conn, now_us);
            return;
        }
        // A frame speaking for a site counts only on that site's live
        // handshaken connection: from a bare connection, or one the site
        // has since replaced, a `Done` could end the round and a `Ping`
        // keep a dead site from eviction.
        let speaker = match frame {
            Control::Ping { site, .. }
            | Control::ClockEcho { site, .. }
            | Control::Telemetry { site, .. }
            | Control::Done { site } => {
                let own = self.local(site).filter(|&child| self.child_conn[child] == Some(conn));
                let Some(child) = own else {
                    self.obs.counter(catalogue::COORD_STRAY_FRAMES, 1);
                    return;
                };
                self.machine.heard(child, now_us);
                Some(child)
            }
            _ => None,
        };
        // Everything else is answered on the asking connection; scrapers
        // and monitors skip the handshake, so any connection may ask.
        let Some(c) = self.conns.get(&conn) else { return };
        let fleet = self.fleet.as_deref();
        match frame {
            Control::Ping { site, sent_us } => {
                // Echo the child's send stamp back so it can measure the
                // heartbeat round-trip on its own clock.
                send_control(&c.writer, &self.obs, &Control::Pong { site, echo_us: sent_us });
            }
            Control::ClockEcho { site, t0_us, site_us } => {
                if let Some(fleet) = fleet {
                    // Cristian's algorithm: the child read its clock
                    // somewhere between t0 (probe sent) and t1 = now_us
                    // (echo received); assume the midpoint.
                    let midpoint = (t0_us + now_us) / 2;
                    fleet.set_offset(site, midpoint as i64 - site_us as i64);
                }
            }
            Control::Telemetry { site, payload } => {
                let Some(fleet) = fleet else { return };
                let Ok(mut delta) = TelemetryDelta::decode(&mut ByteReader::new(&payload)) else {
                    self.obs.counter(catalogue::COORD_TELEMETRY_DECODE_ERR, 1);
                    return;
                };
                // Trust the site this connection handshook as over the
                // payload's own field.
                delta.site = site;
                for entry in delta.flight.drain(..) {
                    self.obs.event(&Event::FlightRecorder { site, entry });
                }
                fleet.apply(&delta);
            }
            Control::StatusRequest => {
                // Child series keep their global `site<N>.` labels, so a
                // fleet-wide dashboard can union per-aggregator scrapes
                // without relabeling.
                let text = match fleet {
                    Some(fleet) => {
                        self.refresh_liveness(fleet);
                        fleet.prometheus_text()
                    }
                    // No fleet: still answer, so scrapes against a
                    // telemetry-less node degrade gracefully.
                    None => String::from("# TYPE cludistream_up gauge\ncludistream_up 1\n"),
                };
                let reply = Control::StatusReply { text: text.into_bytes() };
                send_control(&c.writer, &self.obs, &reply);
            }
            Control::SnapshotRequest => {
                // An empty payload means "nothing published yet" — the
                // reader polls again.
                let snapshot = shard.snapshot_bytes();
                send_control(&c.writer, &self.obs, &Control::SnapshotReply { snapshot });
            }
            Control::HealthRequest => {
                // The liveness gauges are refreshed before evaluation so
                // the rules read exactly the state a status scrape would
                // render. An empty reply means "no alert set configured".
                let alerts = fleet.map_or_else(Vec::new, |fleet| {
                    self.refresh_liveness(fleet);
                    shard.health(fleet)
                });
                send_control(&c.writer, &self.obs, &Control::HealthReply { alerts });
            }
            Control::Done { .. } => {
                if let Some(child) = speaker {
                    self.machine.done(child);
                }
            }
            _ => {}
        }
    }

    /// Validates a child handshake and welcomes it with the resync ACK
    /// from its go-back-N inbox slot.
    #[allow(clippy::too_many_arguments)]
    fn on_hello(
        &mut self,
        shard: &impl Shard,
        version: u16,
        site: u32,
        site_dim: u32,
        site_cov: CovarianceType,
        resume: bool,
        conn: u64,
        now_us: u64,
    ) {
        let mismatch = |code, expect: u64, got: u64| Some(Control::Reject { code, expect, got });
        let child = self.local(site);
        let reject = if version != PROTOCOL_VERSION {
            mismatch(RejectCode::Version, u64::from(PROTOCOL_VERSION), u64::from(version))
        } else if child.is_none() {
            let end = u64::from(self.base) + self.child_conn.len() as u64;
            mismatch(RejectCode::SiteIndex, end, u64::from(site))
        } else if site_dim != self.dim {
            mismatch(RejectCode::Dimension, u64::from(self.dim), u64::from(site_dim))
        } else if site_cov != self.cov {
            let code = |cov| u64::from(cov != CovarianceType::Full);
            mismatch(RejectCode::Covariance, code(self.cov), code(site_cov))
        } else {
            None
        };
        if let Some(reject) = reject {
            if let Some(c) = self.conns.get(&conn) {
                send_control(&c.writer, &self.obs, &reject);
                let _ = c.writer.shutdown(Shutdown::Both);
            }
            return;
        }
        let Some(child) = child else { return };
        // Newest connection wins: cut a stale one left over from a drop
        // the reader has not reported yet.
        if let Some(old) = self.child_conn[child].replace(conn) {
            if old != conn {
                if let Some(c) = self.conns.get(&old) {
                    let _ = c.writer.shutdown(Shutdown::Both);
                }
            }
        }
        if let Some(c) = self.conns.get_mut(&conn) {
            c.child = Some(child);
        }
        self.machine.join(child, now_us);
        self.obs.event(&Event::SiteJoined { site });
        self.obs.counter(catalogue::COORD_JOIN, 1);
        let ack = shard.cumulative(child);
        if resume {
            self.resyncs += 1;
            self.obs.event(&Event::SiteResynced { site, ack });
            self.obs.counter(catalogue::COORD_RESYNC, 1);
        }
        let Some(c) = self.conns.get(&conn) else { return };
        c.cap.store(MAX_FRAME_BYTES, Ordering::Release);
        let welcome = Control::Welcome {
            version: PROTOCOL_VERSION,
            heartbeat_us: self.socket.heartbeat_us,
            timeout_us: self.socket.timeout_us,
            ack,
        };
        if !send_control(&c.writer, &self.obs, &welcome) {
            let _ = c.writer.shutdown(Shutdown::Both);
            return;
        }
        if self.fleet.is_some() {
            // Cristian probe: t0 is stamped here, the child echoes its
            // local clock, and t1 is the arrival time of the `ClockEcho`.
            send_control(&c.writer, &self.obs, &Control::ClockProbe { t0_us: now_us });
        }
        if self.machine.started() {
            // Late (re)joiner: the round is already running.
            send_control(&c.writer, &self.obs, &Control::Start);
        }
        if self.machine.ready_to_start() {
            for live in self.child_conn.iter().filter_map(|id| self.conns.get(&(*id)?)) {
                send_control(&live.writer, &self.obs, &Control::Start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_a_fresh_connection_may_send_fits_the_pre_hello_cap() {
        let hello = |cov| Control::Hello {
            version: u16::MAX,
            site: u32::MAX,
            dim: u32::MAX,
            cov,
            resume: true,
        };
        for frame in [
            hello(CovarianceType::Full),
            hello(CovarianceType::Diagonal),
            Control::StatusRequest,
            Control::SnapshotRequest,
            Control::HealthRequest,
        ] {
            let len = frame.encode().len();
            assert!(len <= PRE_HELLO_MAX_FRAME_BYTES, "{frame:?}: {len} bytes");
        }
    }
}
