//! Transport-independent site and coordinator engines.
//!
//! The discrete-event driver ([`crate::driver`]) and the socket runtime
//! ([`crate::runtime`]) both move the same protocol state machines: a
//! windowed site draining synopses through an [`UpChannel`], and a
//! coordinator releasing them through per-site [`ReliableInbox`]es. The
//! engines here own that shared logic with the transport abstracted to a
//! `send` closure, so *every* telemetry call — journal events, counters,
//! trace spans — happens in the same order no matter which transport is
//! underneath. That ordering is load-bearing: the golden journal and
//! trace fixtures in `crates/cli/tests` are byte-diffed against it, and
//! the socket-smoke CI step diffs the two transports against each other.

use crate::coordinator::Coordinator;
use crate::driver::{DeliveryConfig, DeliveryMode};
use crate::error::CludiError;
use crate::protocol::{Frame, Message, ReliableInbox, ReliableSender, RTO_CAP_US, RTO_US};
use crate::serving::SnapshotHandle;
use crate::windows::Window;
use cludistream_gmm::CovarianceType;
use cludistream_obs::{catalogue, Event, Obs, Recorder, SpanRecord, SpanScope, TraceCtx};
use cludistream_wire::{ByteBuf, ByteReader};
use std::sync::Arc;

/// The upward half of any node that reports to a parent — a site, a
/// simulated aggregator, a socket aggregator: the optional go-back-N
/// [`ReliableSender`] plus the telemetry that brackets every transmit and
/// retransmit. Callers provide a `send` closure that puts encoded frames
/// on their transport (a simulator context, a TCP socket).
pub(crate) struct UpChannel {
    /// This node's index at its parent (journal field, trace node id).
    pub index: u32,
    /// Telemetry observer.
    pub obs: Obs,
    cov: CovarianceType,
    /// Present in reliable mode.
    sender: Option<ReliableSender>,
    /// Frames re-sent on timeout or resync so far.
    pub retransmitted_messages: u64,
    /// Bytes re-sent on timeout or resync so far.
    pub retransmitted_bytes: u64,
}

impl UpChannel {
    pub(crate) fn new(index: u32, cov: CovarianceType, obs: Obs, delivery: DeliveryConfig) -> Self {
        let reliable = delivery.mode == DeliveryMode::Reliable;
        UpChannel {
            index,
            obs,
            cov,
            sender: reliable.then(|| ReliableSender::new(RTO_US, RTO_CAP_US)),
            retransmitted_messages: 0,
            retransmitted_bytes: 0,
        }
    }

    /// Sequences (when reliable) and encodes one message.
    pub(crate) fn frame(&mut self, msg: Message, tctx: Option<TraceCtx>) -> ByteBuf {
        let frame = match &mut self.sender {
            Some(sender) => sender.send_traced(msg, tctx),
            None => Frame::Bare(msg),
        };
        frame.encode(self.cov)
    }

    /// Encodes and sends one untraced message, sequenced when reliable.
    pub(crate) fn send(&mut self, msg: Message, send: &mut dyn FnMut(ByteBuf)) {
        send(self.frame(msg, None));
    }

    /// Records one `wire.send` marker under `tctx`'s wire span (one per
    /// transmit, so retransmits show up as extra markers).
    pub(crate) fn record_send(&self, tctx: Option<TraceCtx>) {
        let Some(tc) = tctx else { return };
        if !self.obs.tracing_enabled() {
            return;
        }
        let span = self.obs.alloc_span(self.index);
        let now = self.obs.sim_now_us();
        self.obs.record_span(&SpanRecord {
            trace: tc.trace,
            span,
            parent: Some(tc.span),
            name: catalogue::WIRE_SEND,
            node: self.index,
            start_us: now,
            end_us: now,
            cost_us: 0,
        });
    }

    /// Feeds a cumulative ACK from the parent to the sender.
    pub(crate) fn on_ack(&mut self, cumulative: u64) {
        if let Some(sender) = &mut self.sender {
            sender.on_ack(cumulative);
        }
    }

    /// Frames still awaiting acknowledgement (0 in fire-and-forget mode).
    pub(crate) fn pending(&self) -> usize {
        self.sender.as_ref().map_or(0, ReliableSender::pending)
    }

    /// Current retransmission timeout (with backoff), microseconds.
    /// `u64::MAX` without a reliable sender — nothing to retransmit.
    pub(crate) fn next_timeout_us(&self) -> u64 {
        self.sender.as_ref().map_or(u64::MAX, ReliableSender::next_timeout_us)
    }

    /// Re-sends the whole unacknowledged queue (go-back-N timeout) through
    /// `send`, counting it under `net.retransmits` and the channel's
    /// `retransmitted_*` totals.
    pub(crate) fn retransmit(&mut self, send: &mut dyn FnMut(ByteBuf)) {
        let frames = match &mut self.sender {
            Some(sender) => sender.on_timeout(),
            None => Vec::new(),
        };
        for frame in frames {
            let bytes = frame.encode(self.cov);
            let len = bytes.len() as u64;
            if let Frame::Data { seq, ctx: tctx, .. } = &frame {
                self.obs.counter(catalogue::NET_RETRANSMITS, 1);
                self.obs.event(&Event::Retransmitted { site: self.index, seq: *seq, bytes: len });
                self.record_send(*tctx);
            }
            self.retransmitted_messages += 1;
            self.retransmitted_bytes += len;
            send(bytes);
        }
    }

    /// Appends the sender's durable state (sequence counter, unacknowledged
    /// queue) to a node checkpoint; nothing in fire-and-forget mode.
    pub(crate) fn snapshot(&self, buf: &mut ByteBuf) {
        if let Some(sender) = &self.sender {
            sender.snapshot(self.cov, buf);
        }
    }

    /// Rebuilds the sender from [`UpChannel::snapshot`]'s bytes.
    pub(crate) fn restore(&mut self, reader: &mut ByteReader<'_>) -> Result<(), CludiError> {
        if self.sender.is_some() {
            self.sender = Some(ReliableSender::restore(RTO_US, RTO_CAP_US, reader)?);
        }
        Ok(())
    }
}

/// The transport-independent half of a remote site: the window, its
/// [`UpChannel`], and the synopsis telemetry around both.
pub(crate) struct SiteCore {
    /// The windowed site producing synopses.
    pub window: Box<dyn Window>,
    /// The channel toward the coordinator (or aggregator) above.
    pub up: UpChannel,
    /// Cumulative synopsis payload bytes transmitted; feeds the
    /// quality plane's `quality.synopsis_bytes_per_record` gauge and is
    /// accumulated only when the site config opts into quality.
    pub synopsis_bytes: u64,
}

impl SiteCore {
    /// Sends one message upward; a synopsis is journaled (and costed for
    /// the quality plane) between encoding and the wire.
    fn transmit(
        &mut self,
        msg: Message,
        is_synopsis: bool,
        tctx: Option<TraceCtx>,
        send: &mut dyn FnMut(ByteBuf),
    ) {
        let bytes = self.up.frame(msg, tctx);
        if is_synopsis {
            let obs = &self.up.obs;
            obs.event(&Event::SynopsisSent { site: self.up.index, bytes: bytes.len() as u64 });
            if self.window.site().config().quality.is_some() {
                // Quality plane: communication cost amortized over the
                // records consumed so far (gauge only — the journal
                // event above is the golden-fixture surface).
                self.synopsis_bytes += bytes.len() as u64;
                let records = self.window.site().stats().records;
                if records > 0 {
                    obs.gauge(
                        catalogue::QUALITY_SYNOPSIS_BYTES_PER_RECORD,
                        self.synopsis_bytes as f64 / records as f64,
                    );
                }
            }
        }
        send(bytes);
        self.up.record_send(tctx);
    }

    /// Transmits whatever the test-and-cluster strategy queued, then the
    /// window-expiry deletions (paper Sec. 7, negative weights).
    pub(crate) fn drain_outbound(&mut self, send: &mut dyn FnMut(ByteBuf)) {
        for (event, tctx) in self.window.drain_events_traced() {
            let is_synopsis = matches!(event, crate::remote::SiteEvent::NewModel { .. });
            let msg = Message::from_site_event(self.up.index, event);
            self.transmit(msg, is_synopsis, tctx, send);
        }
        for (model, count) in self.window.drain_deletions() {
            let msg = Message::Delete { site: self.up.index, model, count_delta: count };
            self.transmit(msg, false, None, send);
        }
    }
}

/// The transport-independent coordinator: applies released messages to
/// the [`Coordinator`] and answers sequenced frames with cumulative ACKs
/// through one [`ReliableInbox`] per site.
pub(crate) struct CoordinatorEngine {
    pub coordinator: Coordinator,
    pub inboxes: Vec<ReliableInbox>,
    pub cov: CovarianceType,
    pub obs: Obs,
    /// Node id coordinator-side spans are allocated from (= site count,
    /// matching the star hub's position after the sites).
    pub trace_node: u32,
    pub decode_errors: u64,
    pub apply_errors: u64,
    pub ack_messages: u64,
    pub ack_bytes: u64,
    /// First site index this engine is responsible for. A star root keeps
    /// the default 0; an aggregator serving the child range
    /// `[site_base, site_base + inboxes.len())` sets it so global site
    /// indices map onto its inbox slots. Frames from outside the range
    /// count as decode errors, exactly like out-of-range sites at a root.
    pub site_base: u32,
    /// Serving-layer publication point. When set, the engine publishes a
    /// fresh [`crate::serving::ModelSnapshot`] after every applied
    /// message; `None` (the default) keeps the write path byte-identical
    /// to the pre-serving behaviour.
    pub publish: Option<Arc<SnapshotHandle>>,
}

impl CoordinatorEngine {
    pub(crate) fn new(
        coordinator: Coordinator,
        sites: usize,
        cov: CovarianceType,
        obs: Obs,
    ) -> Self {
        CoordinatorEngine {
            coordinator,
            inboxes: vec![ReliableInbox::new(); sites],
            cov,
            obs,
            trace_node: sites as u32,
            decode_errors: 0,
            apply_errors: 0,
            ack_messages: 0,
            ack_bytes: 0,
            site_base: 0,
            publish: None,
        }
    }

    pub(crate) fn apply(&mut self, message: &Message) {
        self.apply_traced(message, None);
    }

    /// Applies one released message. With a trace context, this is where a
    /// frame's wire span ends: close it at the release time, record a
    /// `coord.apply` marker under it, and scope the coordinator so its
    /// merge/refine work lands in the same trace.
    fn apply_traced(&mut self, message: &Message, tctx: Option<TraceCtx>) {
        let scope = tctx.filter(|_| self.obs.tracing_enabled()).map(|tc| {
            let now = self.obs.sim_now_us();
            self.obs.close_span(tc.span, now);
            let span = self.obs.alloc_span(self.trace_node);
            self.obs.record_span(&SpanRecord {
                trace: tc.trace,
                span,
                parent: Some(tc.span),
                name: catalogue::COORD_APPLY,
                node: self.trace_node,
                start_us: now,
                end_us: now,
                cost_us: 0,
            });
            SpanScope { trace: tc.trace, parent: span, node: self.trace_node }
        });
        if scope.is_some() {
            self.coordinator.set_trace_scope(scope);
        }
        if self.coordinator.apply(message).is_err() {
            self.apply_errors += 1;
        }
        if scope.is_some() {
            self.coordinator.set_trace_scope(None);
        }
        if let Some(handle) = &self.publish {
            // Nothing to serve until the first model arrives; every later
            // failure mode of capture is also "no groups yet".
            if handle.publish_from(&self.coordinator).is_ok() {
                self.obs.counter(catalogue::SERVE_SNAPSHOTS, 1);
            }
        }
    }

    /// Decodes and processes one raw wire payload. Returns the encoded
    /// cumulative-ACK frame to answer with, when the payload was a
    /// sequenced data frame (a duplicate still gets an ACK — the site has
    /// not seen our cumulative position yet).
    pub(crate) fn on_wire(&mut self, payload: &ByteBuf) -> Option<ByteBuf> {
        match Frame::decode(&mut payload.reader()) {
            Ok(Frame::Bare(message)) => {
                self.apply(&message);
                None
            }
            Ok(Frame::Data { seq, message, ctx: tctx }) => {
                let site = (message.site() as usize).wrapping_sub(self.site_base as usize);
                if site >= self.inboxes.len() {
                    self.decode_errors += 1;
                    return None;
                }
                let inbox = &mut self.inboxes[site];
                let overflows = inbox.overflows();
                let released = inbox.accept_traced(seq, message, tctx);
                if inbox.overflows() > overflows {
                    self.obs.counter(catalogue::PROTOCOL_INBOX_OVERFLOW, 1);
                }
                for (ready, rctx) in released {
                    self.apply_traced(&ready, rctx);
                }
                let ack = Frame::Ack { cumulative: self.inboxes[site].cumulative() };
                let bytes = ack.encode(self.cov);
                self.ack_messages += 1;
                self.ack_bytes += bytes.len() as u64;
                Some(bytes)
            }
            Ok(Frame::Ack { .. }) | Err(_) => {
                self.decode_errors += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::CoordinatorConfig;
    use crate::remote::ModelId;
    use cludistream_gmm::{Gaussian, Mixture};
    use cludistream_linalg::Vector;

    /// The `Hello` handshake checks the dimension a peer declares; a frame
    /// that decodes to a synopsis of another dimension must end as an
    /// `apply_error` with its ACK, not as a panic in the merge criteria.
    #[test]
    fn synopsis_of_another_dimension_is_an_apply_error_and_still_acked() {
        let coordinator = Coordinator::new(CoordinatorConfig::default()).unwrap();
        let mut engine = CoordinatorEngine::new(coordinator, 2, CovarianceType::Full, Obs::noop());
        let frame = |seq: u64, site: u32, mean: &[f64]| {
            let mixture = Mixture::uniform(vec![
                Gaussian::spherical(Vector::from_slice(mean), 1.0).unwrap()
            ])
            .unwrap();
            let message =
                Message::NewModel { site, model: ModelId(0), count: 100, avg_ll: -1.0, mixture };
            Frame::Data { seq, message, ctx: None }.encode(CovarianceType::Full)
        };
        assert!(engine.on_wire(&frame(0, 0, &[0.0, 0.0])).is_some());
        assert_eq!(engine.apply_errors, 0);
        let weight = engine.coordinator.total_weight();
        assert!(engine.on_wire(&frame(0, 1, &[0.0, 0.0, 0.0])).is_some(), "still ACKed");
        assert_eq!(engine.apply_errors, 1);
        assert_eq!(engine.decode_errors, 0);
        assert_eq!(engine.coordinator.known_models(), 1);
        assert_eq!(engine.coordinator.total_weight(), weight);
        engine.coordinator.check().unwrap();
        // The peer's next, valid frame applies.
        assert!(engine.on_wire(&frame(1, 1, &[9.0, 9.0])).is_some());
        assert_eq!(engine.apply_errors, 1);
        assert_eq!(engine.coordinator.known_models(), 2);
    }
}
