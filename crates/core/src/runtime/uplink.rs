//! The upward half of a socket node: play a site toward one parent.
//!
//! An [`Uplink`] dials the parent, hands the socket's read half to a
//! reader thread — the same `read_loop` a downlink's connections get —
//! that feeds the node's one event queue, says `Hello` and waits for
//! `Welcome` (resyncing go-back-N from the parent's cumulative ACK on a
//! reconnect). Then it is one loop over that queue: dispatch what arrived
//! (`Stop`/`Pong`/`ClockProbe`/ACKs from the parent; anything from another
//! connection is a child's and goes to the [`Work`]), let the node do one
//! step of work, announce `Done` once the work is exhausted and everything
//! acknowledged, and heartbeat (with a telemetry flush when opted in).
//! While the work reports [`Step::Busy`] the loop only looks at the queue
//! between steps; otherwise it blocks on it until an event arrives or the
//! earliest deadline — the next heartbeat, or whatever the work is waiting
//! for — passes. No read timeout, no sleep: a node with work never waits
//! and a node without never spins.
//!
//! Timer retransmission is the simulator's, whose links really drop
//! frames. A TCP connection is an in-order, lossless byte stream: a frame
//! written to a live connection is never written to it again, because the
//! second copy could only ever be a duplicate. Loss on TCP *is* a lost
//! connection, and that is the one retransmission here — any socket
//! failure before `Done` reconnects, and the `Welcome`'s cumulative ACK
//! says which tail of the queue to re-send. After `Done` a failure ends
//! the round: the parent has everything and is tearing down.
//!
//! A site ([`super::run_site`]) is an Uplink whose work pulls records
//! through its window; an aggregator ([`super::run_aggregator`]) is an
//! Uplink whose work serves a [`super::downlink::Downlink`] from the same
//! queue. What the two do *between* events sits behind [`Work`] and
//! nowhere else.

use std::net::{Shutdown, TcpStream};
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::engine::UpChannel;
use crate::error::CludiError;
use crate::protocol::Frame;
use crate::runtime::control::{Control, PROTOCOL_VERSION};
use crate::runtime::downlink::{next_event, read_loop, send_control, write_payload, NetEvent};
use crate::runtime::tcp::SocketConfig;
use cludistream_gmm::CovarianceType;
use cludistream_obs::{catalogue, net, Obs, Recorder};
use cludistream_wire::framing::MAX_FRAME_BYTES;
use cludistream_wire::{ByteBuf, ByteReader};

/// What one [`Work::step`] left the node with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// More work in hand: step again without waiting.
    Busy,
    /// Nothing to do until an event arrives or [`Work::deadline`] passes.
    Idle,
    /// Nothing more will ever be sent, so `Done` may follow the last
    /// acknowledgement; then as `Idle`.
    Exhausted,
}

/// What a node does between two looks at its event queue.
pub(crate) trait Work {
    /// The go-back-N channel the node's upward messages go through.
    fn channel(&mut self) -> &mut UpChannel;

    /// One unit of work, sending whatever it produced through `send`.
    fn step(&mut self, send: &mut dyn FnMut(ByteBuf)) -> Result<Step, CludiError>;

    /// An event from a connection that is not the parent's: a child's,
    /// on a node that serves any.
    fn on_event(&mut self, _event: NetEvent) {}

    /// When `step` must run next even if no event arrives.
    fn deadline(&self) -> Option<Instant> {
        None
    }

    /// The parent said `Stop`, right before the uplink returns.
    fn on_stop(&mut self) {}
}

/// Connection ids with this bit set are a node's own upward connections,
/// numbered by reconnect, so they never collide with the ids its acceptor
/// hands to children — and a dead upward connection's `Closed` cannot be
/// taken for the live one's.
const UP_CONN: u64 = 1 << 63;

/// One live upward connection: the write half, its id in the event queue,
/// and the reader thread feeding that queue. Dropping it shuts the socket
/// down, which is what ends the reader.
struct UpConn {
    stream: TcpStream,
    id: u64,
    reader: Option<thread::JoinHandle<()>>,
}

impl Drop for UpConn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// What a frame from the parent means for the loop.
enum Heard {
    Nothing,
    /// The connection is gone (EOF, read error, or a failed reply).
    Lost,
    Stop,
}

/// One node's connection to its parent (see the module docs). The caller
/// fills in the identity and tuning; the counters start at zero and are
/// read back after [`Uplink::run`].
pub(crate) struct Uplink<'a> {
    /// The parent's listening address.
    pub parent_addr: &'a str,
    /// `"site"` or `"aggregator"`, for error messages.
    pub role: &'static str,
    /// This node's site index at the parent.
    pub index: u32,
    pub dim: u32,
    pub cov: CovarianceType,
    pub obs: Obs,
    pub socket: SocketConfig,
    /// Fleet telemetry plane opt-in: stamp the registry clock from
    /// `epoch`, record `hb.rtt_us` from `Pong` echoes, and flush
    /// `TelemetryDelta`s on the heartbeat cadence.
    pub telemetry: bool,
    /// Local monotonic clock for telemetry stamps, Cristian echoes and
    /// RTT samples. Deliberately *not* the parent's clock: the parent
    /// estimates this node's offset from the ClockProbe/ClockEcho
    /// exchange and rebases on its side.
    pub epoch: Instant,
    /// The node's one event queue. This uplink's reader threads feed it
    /// through `events_tx`; an aggregator hands a clone of the sending end
    /// to its downlink, so children wake the same loop.
    pub events: mpsc::Receiver<NetEvent>,
    pub events_tx: mpsc::Sender<NetEvent>,
    /// Frames put on the wire (including a resync's re-sends).
    pub sent_messages: u64,
    /// Payload bytes put on the wire (no length prefix, to match the
    /// simulator's accounting).
    pub sent_bytes: u64,
    /// Times this node reconnected and resynced.
    pub resyncs: u64,
}

/// Connects with retries (the parent may not be listening yet).
fn connect(addr: &str, socket: &SocketConfig) -> Result<TcpStream, CludiError> {
    let attempts = socket.connect_attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = e.to_string();
                if attempt + 1 < attempts {
                    thread::sleep(Duration::from_millis(socket.connect_retry_ms));
                }
            }
        }
    }
    Err(CludiError::Net(format!("connect to {addr} failed after {attempts} attempts: {last}")))
}

impl<'a> Uplink<'a> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn net_err(&self, what: impl std::fmt::Display) -> CludiError {
        CludiError::Net(format!("{} {}: {what}", self.role, self.index))
    }

    /// Builds the send closure for one connection: payload counters, sent
    /// accounting, length-prefixed write, and sticky I/O error capture (a
    /// `FnMut(ByteBuf)` cannot return a `Result`; the loop checks the
    /// flag).
    fn sender<'s>(
        &'s mut self,
        conn: &'s TcpStream,
        io_err: &'s mut bool,
    ) -> impl FnMut(ByteBuf) + use<'s, 'a> {
        move |bytes: ByteBuf| {
            let len = bytes.len() as u64;
            net::on_send(&self.obs, len);
            self.sent_messages += 1;
            self.sent_bytes += len;
            if !*io_err && write_payload(conn, bytes.as_slice()).is_err() {
                *io_err = true;
            }
        }
    }

    /// Drains the registry's staged telemetry and ships it as one
    /// [`Control::Telemetry`] frame, so the parent's fleet shows this
    /// node's series under `site<index>.`. The first flush after a resync
    /// carries the flight-recorder ring (`flush_flight`), which this
    /// clears; a quiet registry (nothing staged) sends nothing.
    fn flush_telemetry(&self, conn: &TcpStream, flush_flight: &mut bool, io_err: &mut bool) {
        let Some(mut delta) = self.obs.drain_telemetry(*flush_flight) else { return };
        *flush_flight = false;
        delta.site = self.index;
        let frame = Control::Telemetry { site: self.index, payload: delta.encode().into_vec() };
        if !send_control(conn, &self.obs, &frame) {
            *io_err = true;
        }
    }

    /// Dials the parent and starts the reader that turns what it says
    /// into events of connection `UP_CONN | generation`.
    fn dial(&self, generation: u64) -> Result<UpConn, CludiError> {
        let stream = connect(self.parent_addr, &self.socket)?;
        stream.set_nodelay(true)?;
        let id = UP_CONN | generation;
        let (read_half, events) = (stream.try_clone()?, self.events_tx.clone());
        // The parent is trusted with the full frame cap from the start.
        let cap = AtomicUsize::new(MAX_FRAME_BYTES);
        let reader = thread::spawn(move || read_loop(id, read_half, &cap, &events));
        Ok(UpConn { stream, id, reader: Some(reader) })
    }

    /// Sorts one event: the live upward connection's is returned, a
    /// child connection's goes to the work, and a dead upward
    /// connection's is dropped.
    fn route(event: NetEvent, conn: &UpConn, work: &mut impl Work) -> Option<NetEvent> {
        if event.conn() == conn.id {
            return Some(event);
        }
        if event.conn() & UP_CONN == 0 {
            work.on_event(event);
        }
        None
    }

    /// Rendezvous: says `Hello`, then waits for `Welcome` (or `Reject`)
    /// under the handshake deadline, serving the work's own connections
    /// meanwhile. Returns the parent's heartbeat period and its cumulative
    /// ACK. Whatever the parent sent behind the `Welcome` (`Start`, its
    /// `ClockProbe`) stays queued for the main loop.
    fn rendezvous(
        &self,
        conn: &UpConn,
        resume: bool,
        work: &mut impl Work,
    ) -> Result<(u64, u64), CludiError> {
        let hello = Control::Hello {
            version: PROTOCOL_VERSION,
            site: self.index,
            dim: self.dim,
            cov: self.cov,
            resume,
        };
        let bytes = hello.encode();
        net::on_ctrl_send(&self.obs, bytes.len() as u64);
        write_payload(&conn.stream, bytes.as_slice())?;

        let deadline = Instant::now().checked_add(Duration::from_micros(self.socket.timeout_us));
        loop {
            let Some(event) = next_event(&self.events, deadline)? else {
                return Err(self.net_err("handshake timed out"));
            };
            let payload = match Self::route(event, conn, work) {
                Some(NetEvent::Frame { payload, .. }) if Control::is_control(&payload) => payload,
                Some(NetEvent::Closed { .. }) => {
                    return Err(self.net_err("connection closed during handshake"));
                }
                _ => continue,
            };
            match Control::decode(&mut ByteReader::new(&payload))? {
                Control::Welcome { heartbeat_us, ack, .. } => return Ok((heartbeat_us, ack)),
                Control::Reject { code, expect, got } => {
                    return Err(self.net_err(format_args!(
                        "parent rejected handshake: {} mismatch (parent has {expect}, \
                         this {} sent {got})",
                        code.describe(),
                        self.role
                    )));
                }
                _ => {}
            }
        }
    }

    /// Dispatches one event of the live upward connection.
    fn on_parent(&self, event: NetEvent, conn: &UpConn, work: &mut impl Work) -> Heard {
        let payload = match event {
            NetEvent::Frame { payload, .. } => payload,
            NetEvent::Closed { .. } => return Heard::Lost,
            NetEvent::Accepted { .. } => return Heard::Nothing,
        };
        if !Control::is_control(&payload) {
            if let Ok(Frame::Ack { cumulative }) = Frame::decode(&mut ByteReader::new(&payload)) {
                work.channel().on_ack(cumulative);
            }
            return Heard::Nothing;
        }
        match Control::decode(&mut ByteReader::new(&payload)) {
            Ok(Control::Stop) => return Heard::Stop,
            Ok(Control::Pong { echo_us, .. }) if self.telemetry => {
                let rtt = self.now_us().saturating_sub(echo_us);
                self.obs.observe(catalogue::HB_RTT_US, rtt);
            }
            Ok(Control::ClockProbe { t0_us }) => {
                let echo = Control::ClockEcho { site: self.index, t0_us, site_us: self.now_us() };
                if !send_control(&conn.stream, &self.obs, &echo) {
                    return Heard::Lost;
                }
            }
            _ => {}
        }
        Heard::Nothing
    }

    /// The idle wait: blocks until an event arrives or `until` passes.
    /// `uplink.wait_us` (one observation per wake-up) is this node's answer to
    /// "waiting or computing" — a busy node never comes here.
    fn wait(&self, until: Option<Instant>) -> Result<Option<NetEvent>, CludiError> {
        let started = Instant::now();
        let event = next_event(&self.events, until)?;
        self.obs.observe(catalogue::UPLINK_WAIT_US, started.elapsed().as_micros() as u64);
        Ok(event)
    }

    /// Runs the node against its parent until the parent says `Stop` (or
    /// vanishes after `Done`): rendezvous, work, liveness, and
    /// reconnect-with-resync on any earlier socket failure.
    pub(crate) fn run(&mut self, work: &mut impl Work) -> Result<(), CludiError> {
        let mut reconnects = 0u64;
        'round: loop {
            // Dropped at the end of every pass, which shuts the socket
            // down and collects its reader before the next dial.
            let conn = self.dial(reconnects)?;
            let resume = reconnects > 0;
            let (heartbeat_us, parent_ack) = self.rendezvous(&conn, resume, work)?;
            let heartbeat = Duration::from_micros(heartbeat_us.max(1));
            work.channel().on_ack(parent_ack);
            let mut io_err = false;
            if resume {
                // Go-back-N resync: the Welcome told us the parent's
                // cumulative position; re-send everything past it now.
                self.resyncs += 1;
                work.channel().retransmit(&mut self.sender(&conn.stream, &mut io_err));
            }

            let mut done_sent = false;
            // `None` is a heartbeat period past the end of the clock.
            let mut next_ping = Instant::now().checked_add(heartbeat);
            // The first flush after a resync carries the flight-recorder
            // ring: the parent journals what this node saw before the
            // crash.
            let mut flush_flight = self.telemetry && resume;
            let mut busy = true;
            loop {
                if self.telemetry {
                    self.obs.set_sim_time(self.now_us());
                }
                // A failed write counts as a lost connection, like EOF or
                // a failed read.
                let mut lost = io_err;
                let mut event = if busy || lost {
                    self.events.try_recv().ok()
                } else {
                    self.wait([next_ping, work.deadline()].into_iter().flatten().min())?
                };
                while let Some(current) = event {
                    if let Some(current) = Self::route(current, &conn, work) {
                        match self.on_parent(current, &conn, work) {
                            Heard::Stop => {
                                work.on_stop();
                                break 'round;
                            }
                            Heard::Lost => lost = true,
                            Heard::Nothing => {}
                        }
                    }
                    event = self.events.try_recv().ok();
                }
                if lost {
                    if done_sent {
                        // Everything was acknowledged before Done went
                        // out; the parent closing (or already gone) is the
                        // round tearing down, not a failure to resync
                        // from.
                        break 'round;
                    }
                    break; // reconnect
                }
                let step = work.step(&mut self.sender(&conn.stream, &mut io_err))?;
                busy = step == Step::Busy;
                if step == Step::Exhausted
                    && work.channel().pending() == 0
                    && !done_sent
                    && !io_err
                {
                    if self.telemetry {
                        // Flush before Done: once every node is done the
                        // parent may Stop and tear down, so this is the
                        // last delta guaranteed to land in the fleet
                        // registry. Every data-plane counter is final here
                        // (work exhausted, everything acknowledged).
                        self.flush_telemetry(&conn.stream, &mut flush_flight, &mut io_err);
                    }
                    if send_control(&conn.stream, &self.obs, &Control::Done { site: self.index }) {
                        done_sent = true;
                    } else {
                        io_err = true;
                    }
                }
                if next_ping.is_some_and(|at| Instant::now() >= at) {
                    let ping = Control::Ping { site: self.index, sent_us: self.now_us() };
                    if !send_control(&conn.stream, &self.obs, &ping) {
                        io_err = true;
                    }
                    if self.telemetry {
                        self.flush_telemetry(&conn.stream, &mut flush_flight, &mut io_err);
                    }
                    next_ping = Instant::now().checked_add(heartbeat);
                }
            }
            reconnects += 1;
        }
        Ok(())
    }
}
