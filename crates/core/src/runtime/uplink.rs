//! The upward half of a socket node: play a site toward one parent.
//!
//! An [`Uplink`] dials the parent, says `Hello` and waits for `Welcome`
//! (resyncing go-back-N from the parent's cumulative ACK on a reconnect),
//! then loops: poll the socket, dispatch `Stop`/`Pong`/`ClockProbe`/ACKs,
//! let the node do one step of [`Work`], retransmit on RTO, announce
//! `Done` once the work is exhausted and everything acknowledged, and
//! heartbeat (with a telemetry flush when opted in). Any socket failure
//! before `Done` reconnects and resyncs; after `Done` it ends the round —
//! the parent has everything and is tearing down.
//!
//! A site ([`super::run_site`]) is an Uplink whose work pulls records
//! through its window; an aggregator ([`super::run_aggregator`]) is an
//! Uplink whose work pumps a [`super::downlink::Downlink`]. What the two
//! do *between* polls sits behind [`Work`] and nowhere else.

use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use crate::engine::UpChannel;
use crate::error::CludiError;
use crate::protocol::Frame;
use crate::runtime::control::{Control, PROTOCOL_VERSION};
use crate::runtime::downlink::{send_control, write_payload};
use crate::runtime::tcp::SocketConfig;
use cludistream_gmm::CovarianceType;
use cludistream_obs::{net, Obs, Recorder};
use cludistream_wire::framing::FrameReader;
use cludistream_wire::{ByteBuf, ByteReader};

/// What a node does between two polls of its upward socket.
pub(crate) trait Work {
    /// The go-back-N channel the node's upward messages go through.
    fn channel(&mut self) -> &mut UpChannel;

    /// One unit of work, sending whatever it produced through `send`.
    /// Returns `true` once exhausted: nothing more will ever be sent, so
    /// `Done` may follow the last acknowledgement.
    fn step(&mut self, send: &mut dyn FnMut(ByteBuf)) -> Result<bool, CludiError>;

    /// The parent said `Stop`, right before the uplink returns.
    fn on_stop(&mut self) {}
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
    /// Frames put on the wire (including retransmissions).
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

    /// Rendezvous: says `Hello`, then waits for `Welcome` (or `Reject`)
    /// under the handshake deadline. Returns the parent's heartbeat
    /// period, its cumulative ACK, and the frames that arrived behind the
    /// `Welcome` in the same poll (`Start`, the parent's `ClockProbe`) —
    /// they belong to the main loop and must not be dropped.
    fn rendezvous(
        &self,
        conn: &TcpStream,
        fr: &mut FrameReader,
        resume: bool,
    ) -> Result<(u64, u64, Vec<Vec<u8>>), CludiError> {
        let hello = Control::Hello {
            version: PROTOCOL_VERSION,
            site: self.index,
            dim: self.dim,
            cov: self.cov,
            resume,
        };
        let bytes = hello.encode();
        net::on_ctrl_send(&self.obs, bytes.len() as u64);
        write_payload(conn, bytes.as_slice())?;

        let deadline = Instant::now() + Duration::from_micros(self.socket.timeout_us.max(1));
        loop {
            if Instant::now() > deadline {
                return Err(self.net_err("handshake timed out"));
            }
            let polled = fr.poll(&mut { conn })?;
            let mut frames = polled.frames.into_iter();
            while let Some(payload) = frames.next() {
                if !Control::is_control(&payload) {
                    continue;
                }
                match Control::decode(&mut ByteReader::new(&payload))? {
                    Control::Welcome { heartbeat_us, ack, .. } => {
                        return Ok((heartbeat_us, ack, frames.collect()));
                    }
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
            if polled.eof {
                return Err(self.net_err("connection closed during handshake"));
            }
        }
    }

    /// Runs the node against its parent until the parent says `Stop` (or
    /// vanishes after `Done`): rendezvous, work, liveness, and
    /// reconnect-with-resync on any earlier socket failure.
    pub fn run(&mut self, work: &mut impl Work) -> Result<(), CludiError> {
        let mut reconnects = 0u32;
        'round: loop {
            let conn = connect(self.parent_addr, &self.socket)?;
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(Duration::from_millis(20)))?;
            let resume = reconnects > 0;
            let mut fr = FrameReader::new();
            let (heartbeat_us, parent_ack, mut inbound) = self.rendezvous(&conn, &mut fr, resume)?;
            let heartbeat = Duration::from_micros(heartbeat_us.max(1));
            work.channel().on_ack(parent_ack);
            let mut io_err = false;
            if resume {
                // Go-back-N resync: the Welcome told us the parent's
                // cumulative position; re-send everything past it now.
                self.resyncs += 1;
                work.channel().retransmit(&mut self.sender(&conn, &mut io_err));
            }

            let mut done_sent = false;
            let mut last_ping = Instant::now();
            let mut retx_at: Option<Instant> = None;
            // Busy-poll (1 ms) while there is work, block up to 20 ms once
            // exhausted.
            let mut polling_fast = true;
            // The first flush after a resync carries the flight-recorder
            // ring: the parent journals what this node saw before the
            // crash.
            let mut flush_flight = self.telemetry && resume;
            conn.set_read_timeout(Some(Duration::from_millis(1)))?;
            loop {
                if self.telemetry {
                    self.obs.set_sim_time(self.now_us());
                }
                // A failed write counts as a lost connection, like EOF or
                // a failed read.
                let polled = if io_err { None } else { fr.poll(&mut { &conn }).ok() };
                let (frames, mut lost) = polled.map_or((Vec::new(), true), |p| (p.frames, p.eof));
                inbound.extend(frames);
                for payload in inbound.drain(..) {
                    if Control::is_control(&payload) {
                        match Control::decode(&mut ByteReader::new(&payload)) {
                            Ok(Control::Stop) => {
                                work.on_stop();
                                break 'round;
                            }
                            Ok(Control::Pong { echo_us, .. }) if self.telemetry => {
                                let rtt = self.now_us().saturating_sub(echo_us);
                                self.obs.observe("hb.rtt_us", rtt);
                            }
                            Ok(Control::ClockProbe { t0_us }) => {
                                let echo = Control::ClockEcho {
                                    site: self.index,
                                    t0_us,
                                    site_us: self.now_us(),
                                };
                                lost |= !send_control(&conn, &self.obs, &echo);
                            }
                            _ => {}
                        }
                    } else if let Ok(Frame::Ack { cumulative }) =
                        Frame::decode(&mut ByteReader::new(&payload))
                    {
                        work.channel().on_ack(cumulative);
                    }
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
                let exhausted = work.step(&mut self.sender(&conn, &mut io_err))?;
                if exhausted == polling_fast {
                    polling_fast = !exhausted;
                    let timeout = Duration::from_millis(if polling_fast { 1 } else { 20 });
                    conn.set_read_timeout(Some(timeout))?;
                }
                let up = work.channel();
                if up.pending() > 0 {
                    let rto = Duration::from_micros(up.next_timeout_us());
                    if Instant::now() >= *retx_at.get_or_insert_with(|| Instant::now() + rto) {
                        up.retransmit(&mut self.sender(&conn, &mut io_err));
                        let backoff = Duration::from_micros(up.next_timeout_us());
                        retx_at = Some(Instant::now() + backoff);
                    }
                } else {
                    retx_at = None;
                }
                if exhausted && up.pending() == 0 && !done_sent && !io_err {
                    if self.telemetry {
                        // Flush before Done: once every node is done the
                        // parent may Stop and tear down, so this is the
                        // last delta guaranteed to land in the fleet
                        // registry. Every data-plane counter is final here
                        // (work exhausted, everything acknowledged).
                        self.flush_telemetry(&conn, &mut flush_flight, &mut io_err);
                    }
                    if send_control(&conn, &self.obs, &Control::Done { site: self.index }) {
                        done_sent = true;
                    } else {
                        io_err = true;
                    }
                }
                if last_ping.elapsed() >= heartbeat {
                    let ping = Control::Ping { site: self.index, sent_us: self.now_us() };
                    if !send_control(&conn, &self.obs, &ping) {
                        io_err = true;
                    }
                    if self.telemetry {
                        self.flush_telemetry(&conn, &mut flush_flight, &mut io_err);
                    }
                    last_ping = Instant::now();
                }
            }
            reconnects += 1;
        }
        Ok(())
    }
}
