//! Site ↔ coordinator wire protocol.
//!
//! Three message kinds implement the paper's synopsis-based information
//! exchange (Sec. 5.3): full model synopses when a new distribution
//! emerges, small weight updates when an old model is re-activated by the
//! multi-test strategy, and deletions (negative weight) for sliding-window
//! expiry (Sec. 7). Every message has an exact byte size so the
//! communication-cost experiments measure real wire traffic.
//!
//! ## Reliable delivery
//!
//! On a faulty network (see `cludistream_simnet::FaultPlan`) synopses can
//! be dropped, duplicated, or reordered, and a crashed coordinator link
//! loses everything in flight. The [`Frame`] layer adds go-back-N
//! reliability on top of [`Message`]:
//!
//! - sites wrap each synopsis in [`Frame::Data`] with a per-site sequence
//!   number assigned by a [`ReliableSender`], which keeps unacknowledged
//!   messages queued and retransmits them with exponential backoff;
//! - the coordinator runs one [`ReliableInbox`] per site, which releases
//!   messages in sequence order exactly once (duplicates and stale
//!   retransmits are discarded idempotently) and answers with cumulative
//!   [`Frame::Ack`]s.
//!
//! [`Frame::Bare`] carries an unsequenced message and preserves the
//! legacy encoding byte-for-byte, so fault-free runs pay zero overhead
//! and existing wire fixtures stay valid.
//!
//! ## Trace context
//!
//! When tracing is enabled, [`Frame::Data`] optionally carries a
//! [`TraceCtx`] — the trace id and wire-span id allocated at the site —
//! encoded as a distinct frame tag so untraced runs keep the exact
//! pre-tracing byte layout. Retransmitted and fault-duplicated frames
//! carry the *originating* context (the [`ReliableSender`] stores it with
//! each unacknowledged message, including across checkpoint
//! snapshot/restore), so every copy of a synopsis lands under the same
//! span and the coordinator can close the span at exactly-once inbox
//! release.

use crate::error::CludiError;
use crate::remote::{ModelId, SiteEvent};
use cludistream_gmm::codec::{decode_mixture, encode_mixture, encoded_len};
use cludistream_gmm::{CovarianceType, GmmError, Mixture};
use cludistream_obs::{SpanId, TraceCtx, TraceId};
use cludistream_wire::{ByteBuf, ByteReader, Malformed, Truncated};
use std::collections::{BTreeMap, VecDeque};

/// A message from a remote site to the coordinator.
#[derive(Debug, Clone)]
pub enum Message {
    /// A new model was learned at the site; carries the full synopsis.
    NewModel {
        /// Originating site.
        site: u32,
        /// Site-local model id.
        model: ModelId,
        /// Records in the founding chunk.
        count: u64,
        /// Average log likelihood of the founding chunk.
        avg_ll: f64,
        /// The mixture synopsis.
        mixture: Mixture,
    },
    /// An existing model absorbed more records (multi-test re-activation).
    WeightUpdate {
        /// Originating site.
        site: u32,
        /// Site-local model id.
        model: ModelId,
        /// Records added to the model's counter.
        count_delta: u64,
    },
    /// Records attributed to a model left the sliding window; the
    /// coordinator subtracts the weight and drops the model at zero
    /// (Sec. 7, "Landmark Windows and Sliding Windows").
    Delete {
        /// Originating site.
        site: u32,
        /// Site-local model id.
        model: ModelId,
        /// Records removed from the model's counter.
        count_delta: u64,
    },
}

const TAG_NEW_MODEL: u8 = 1;
const TAG_WEIGHT_UPDATE: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_DATA: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_TRACED: u8 = 6;

/// Fixed header: tag (1) + site (4) + model id (8).
const HEADER_BYTES: usize = 13;

impl Message {
    /// Lifts a site-local event into a wire message.
    pub fn from_site_event(site: u32, event: SiteEvent) -> Message {
        match event {
            SiteEvent::NewModel { model, mixture, count, avg_ll } => {
                Message::NewModel { site, model, count, avg_ll, mixture }
            }
            SiteEvent::WeightUpdate { model, count_delta } => {
                Message::WeightUpdate { site, model, count_delta }
            }
            SiteEvent::Retired { model, count } => {
                Message::Delete { site, model, count_delta: count }
            }
        }
    }

    /// Originating site.
    pub fn site(&self) -> u32 {
        match self {
            Message::NewModel { site, .. }
            | Message::WeightUpdate { site, .. }
            | Message::Delete { site, .. } => *site,
        }
    }

    /// Exact encoded size under the given covariance representation.
    pub fn wire_bytes(&self, cov: CovarianceType) -> usize {
        match self {
            Message::NewModel { mixture, .. } => {
                HEADER_BYTES + 8 + 8 + encoded_len(mixture.k(), mixture.dim(), cov)
            }
            Message::WeightUpdate { .. } | Message::Delete { .. } => HEADER_BYTES + 8,
        }
    }

    /// Encodes the message.
    pub fn encode(&self, cov: CovarianceType) -> ByteBuf {
        let mut buf = ByteBuf::with_capacity(self.wire_bytes(cov));
        match self {
            Message::NewModel { site, model, count, avg_ll, mixture } => {
                buf.put_u8(TAG_NEW_MODEL);
                buf.put_u32_le(*site);
                buf.put_u64_le(model.0);
                buf.put_u64_le(*count);
                buf.put_f64_le(*avg_ll);
                buf.extend_from_slice(&encode_mixture(mixture, cov));
            }
            Message::WeightUpdate { site, model, count_delta } => {
                buf.put_u8(TAG_WEIGHT_UPDATE);
                buf.put_u32_le(*site);
                buf.put_u64_le(model.0);
                buf.put_u64_le(*count_delta);
            }
            Message::Delete { site, model, count_delta } => {
                buf.put_u8(TAG_DELETE);
                buf.put_u32_le(*site);
                buf.put_u64_le(model.0);
                buf.put_u64_le(*count_delta);
            }
        }
        buf
    }

    /// Decodes a message produced by [`Message::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Message, GmmError> {
        Message::read(r).map_err(|e| e.named(GmmError::Codec("truncated message")))
    }

    /// Reads a message; a truncation is named by the codec around it.
    fn read<E: From<GmmError>>(r: &mut ByteReader<'_>) -> Result<Message, Malformed<E>> {
        let tag = r.get_u8()?;
        Message::read_after_tag(tag, r)
    }

    /// Reads the header remainder and body once `tag` has been read
    /// (shared by [`Message::decode`] and [`Frame::decode`]).
    fn read_after_tag<E: From<GmmError>>(
        tag: u8,
        r: &mut ByteReader<'_>,
    ) -> Result<Message, Malformed<E>> {
        let site = r.get_u32_le()?;
        let model = ModelId(r.get_u64_le()?);
        match tag {
            TAG_NEW_MODEL => {
                let count = r.get_u64_le()?;
                let avg_ll = r.get_f64_le()?;
                let mixture = decode_mixture(r)?;
                Ok(Message::NewModel { site, model, count, avg_ll, mixture })
            }
            TAG_WEIGHT_UPDATE => {
                Ok(Message::WeightUpdate { site, model, count_delta: r.get_u64_le()? })
            }
            TAG_DELETE => Ok(Message::Delete { site, model, count_delta: r.get_u64_le()? }),
            _ => Err(GmmError::Codec("unknown message tag").into()),
        }
    }
}

/// A wire frame: either a bare legacy message or a sequenced/ack frame of
/// the reliable-delivery protocol.
#[derive(Debug, Clone)]
pub enum Frame {
    /// An unsequenced message (fire-and-forget mode). Encodes exactly as
    /// [`Message::encode`] — the legacy format.
    Bare(Message),
    /// A sequenced synopsis from a site. Sequence numbers are per-site
    /// and start at 0.
    Data {
        /// Per-site sequence number.
        seq: u64,
        /// The synopsis being carried.
        message: Message,
        /// Trace context when tracing is enabled; `None` encodes exactly
        /// as the pre-tracing data-frame format.
        ctx: Option<TraceCtx>,
    },
    /// A cumulative acknowledgement from the coordinator: every sequence
    /// number `< cumulative` has been received.
    Ack {
        /// Next sequence number the coordinator expects.
        cumulative: u64,
    },
}

/// Wire size of an [`Frame::Ack`]: tag (1) + cumulative (8).
pub(crate) const ACK_BYTES: usize = 9;

/// Per-frame overhead of [`Frame::Data`] over the bare message: tag (1) +
/// sequence number (8).
pub(crate) const DATA_OVERHEAD_BYTES: usize = 9;

/// Additional overhead of a traced data frame over an untraced one:
/// trace id (8) + span id (8).
pub(crate) const TRACE_CTX_BYTES: usize = 16;

impl Frame {
    /// Exact encoded size under the given covariance representation.
    pub(crate) fn wire_bytes(&self, cov: CovarianceType) -> usize {
        match self {
            Frame::Bare(m) => m.wire_bytes(cov),
            Frame::Data { message, ctx, .. } => {
                let trace = if ctx.is_some() { TRACE_CTX_BYTES } else { 0 };
                DATA_OVERHEAD_BYTES + trace + message.wire_bytes(cov)
            }
            Frame::Ack { .. } => ACK_BYTES,
        }
    }

    /// Encodes the frame.
    pub fn encode(&self, cov: CovarianceType) -> ByteBuf {
        match self {
            Frame::Bare(m) => m.encode(cov),
            Frame::Data { seq, message, ctx } => {
                let mut buf = ByteBuf::with_capacity(self.wire_bytes(cov));
                match ctx {
                    None => {
                        buf.put_u8(TAG_DATA);
                    }
                    Some(ctx) => {
                        buf.put_u8(TAG_TRACED);
                        buf.put_u64_le(ctx.trace.0);
                        buf.put_u64_le(ctx.span.0);
                    }
                }
                buf.put_u64_le(*seq);
                buf.extend_from_slice(&message.encode(cov));
                buf
            }
            Frame::Ack { cumulative } => {
                let mut buf = ByteBuf::with_capacity(ACK_BYTES);
                buf.put_u8(TAG_ACK);
                buf.put_u64_le(*cumulative);
                buf
            }
        }
    }

    /// Decodes any frame: tags 1–3 are legacy bare messages, 4 is a
    /// sequenced data frame, 5 a cumulative ACK, 6 a traced data frame.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Frame, CludiError> {
        Frame::read(r).map_err(|e| e.named(CludiError::Decode("truncated frame")))
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Frame, Malformed<CludiError>> {
        let tag = r.get_u8()?;
        match tag {
            TAG_NEW_MODEL | TAG_WEIGHT_UPDATE | TAG_DELETE => {
                Ok(Frame::Bare(Message::read_after_tag(tag, r)?))
            }
            TAG_DATA => {
                let seq = r.get_u64_le()?;
                Ok(Frame::Data { seq, message: Message::read(r)?, ctx: None })
            }
            TAG_TRACED => {
                let ctx = read_trace_ctx(r)?;
                let seq = r.get_u64_le()?;
                Ok(Frame::Data { seq, message: Message::read(r)?, ctx: Some(ctx) })
            }
            TAG_ACK => Ok(Frame::Ack { cumulative: r.get_u64_le()? }),
            _ => Err(CludiError::Decode("unknown frame tag").into()),
        }
    }
}

fn read_trace_ctx(r: &mut ByteReader<'_>) -> Result<TraceCtx, Truncated> {
    Ok(TraceCtx { trace: TraceId(r.get_u64_le()?), span: SpanId(r.get_u64_le()?) })
}

/// Initial retransmission timeout of a run's [`ReliableSender`]s,
/// microseconds.
pub(crate) const RTO_US: u64 = 50_000;

/// Cap of the exponential retransmission backoff, microseconds.
pub(crate) const RTO_CAP_US: u64 = 1_000_000;

/// The site half of the reliable-delivery protocol: assigns sequence
/// numbers, keeps every unacknowledged synopsis queued, and retransmits
/// the whole queue (go-back-N) with exponential backoff when the
/// retransmit timer fires.
///
/// The sender is deliberately snapshot-friendly ([`ReliableSender::snapshot`]
/// / [`ReliableSender::restore`]): a crashed site restored from its last
/// checkpoint resumes retransmitting whatever was unacknowledged at
/// checkpoint time. Re-sending already-acknowledged messages is harmless —
/// the coordinator's [`ReliableInbox`] discards them as duplicates and
/// re-acknowledges.
#[derive(Debug, Clone)]
pub struct ReliableSender {
    next_seq: u64,
    unacked: VecDeque<(u64, Message, Option<TraceCtx>)>,
    retries: u32,
    base_rto_us: u64,
    max_rto_us: u64,
    retransmitted_messages: u64,
}

impl ReliableSender {
    /// A sender with the given initial retransmission timeout and cap, in
    /// microseconds of whichever clock arms the timer. Only the simulator
    /// arms one: the socket runtime re-sends after a reconnect, never on a
    /// timeout, and reads neither value.
    pub fn new(base_rto_us: u64, max_rto_us: u64) -> ReliableSender {
        ReliableSender {
            next_seq: 0,
            unacked: VecDeque::new(),
            retries: 0,
            base_rto_us: base_rto_us.max(1),
            max_rto_us: max_rto_us.max(1),
            retransmitted_messages: 0,
        }
    }

    /// Wraps `message` in the next sequenced frame and queues it until
    /// acknowledged.
    pub fn send(&mut self, message: Message) -> Frame {
        self.send_traced(message, None)
    }

    /// Like [`ReliableSender::send`], attaching a trace context that every
    /// copy of the frame (initial send and retransmits) will carry.
    pub fn send_traced(&mut self, message: Message, ctx: Option<TraceCtx>) -> Frame {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back((seq, message.clone(), ctx));
        Frame::Data { seq, message, ctx }
    }

    /// Processes a cumulative ACK: drops every queued frame with sequence
    /// number `< cumulative` and, if that made progress, resets the
    /// backoff. Returns how many frames were newly acknowledged.
    pub(crate) fn on_ack(&mut self, cumulative: u64) -> usize {
        let before = self.unacked.len();
        while self.unacked.front().is_some_and(|(seq, _, _)| *seq < cumulative) {
            self.unacked.pop_front();
        }
        let progressed = self.unacked.len() < before;
        if progressed {
            self.retries = 0;
        }
        before - self.unacked.len()
    }

    /// Frames still awaiting acknowledgement.
    pub(crate) fn pending(&self) -> usize {
        self.unacked.len()
    }

    /// The delay before the next retransmission attempt: the base RTO
    /// doubled per consecutive unacknowledged timeout, capped.
    pub(crate) fn next_timeout_us(&self) -> u64 {
        let shift = self.retries.min(32);
        (((self.base_rto_us as u128) << shift).min(self.max_rto_us as u128) as u64).max(1)
    }

    /// Retransmits the whole unacknowledged queue (go-back-N) and bumps
    /// the backoff. Returns the frames to put back on the wire, oldest
    /// first; empty when nothing is pending.
    pub(crate) fn on_timeout(&mut self) -> Vec<Frame> {
        if self.unacked.is_empty() {
            return Vec::new();
        }
        self.retries = self.retries.saturating_add(1);
        self.retransmitted_messages += self.unacked.len() as u64;
        self.unacked
            .iter()
            .map(|(seq, message, ctx)| Frame::Data {
                seq: *seq,
                message: message.clone(),
                ctx: *ctx,
            })
            .collect()
    }

    /// Serializes the durable part of the sender (sequence counter and
    /// unacknowledged queue) into `buf`, for inclusion in a site
    /// checkpoint. Backoff state is deliberately volatile.
    pub fn snapshot(&self, cov: CovarianceType, buf: &mut ByteBuf) {
        buf.put_u64_le(self.next_seq);
        buf.put_u64_le(self.unacked.len() as u64);
        for (seq, message, ctx) in &self.unacked {
            buf.put_u64_le(*seq);
            // Trace context survives the checkpoint so post-restore
            // retransmits still land under the originating span.
            match ctx {
                None => buf.put_u8(0),
                Some(ctx) => {
                    buf.put_u8(1);
                    buf.put_u64_le(ctx.trace.0);
                    buf.put_u64_le(ctx.span.0);
                }
            }
            let encoded = message.encode(cov);
            buf.put_u64_le(encoded.len() as u64);
            buf.extend_from_slice(&encoded);
        }
    }

    /// Restores a sender from [`ReliableSender::snapshot`] bytes, with
    /// fresh (reset) backoff state.
    pub fn restore(
        base_rto_us: u64,
        max_rto_us: u64,
        r: &mut ByteReader<'_>,
    ) -> Result<ReliableSender, CludiError> {
        let mut sender = ReliableSender::new(base_rto_us, max_rto_us);
        sender
            .read_queue(r)
            .map_err(|e| e.named(CludiError::Decode("truncated sender checkpoint")))?;
        Ok(sender)
    }

    /// Reads the sequence counter and the unacknowledged queue.
    fn read_queue(&mut self, r: &mut ByteReader<'_>) -> Result<(), Malformed<CludiError>> {
        self.next_seq = r.get_u64_le()?;
        for _ in 0..r.get_u64_le()? {
            let seq = r.get_u64_le()?;
            let ctx = match r.get_u8()? {
                0 => None,
                1 => Some(read_trace_ctx(r)?),
                _ => return Err(CludiError::Decode("bad sender snapshot trace flag").into()),
            };
            // The message is read from exactly the bytes its length claims.
            let len = r.get_u64_le()? as usize;
            let message = Message::read(&mut ByteReader::new(r.bytes(len)?))?;
            self.unacked.push_back((seq, message, ctx));
        }
        Ok(())
    }
}

/// How far past its cumulative ACK an inbox holds frames for a gap to
/// fill: it buffers sequence numbers `next .. next + INBOX_SPAN` and
/// discards anything beyond ([`ReliableInbox::overflows`]), which the
/// sender's go-back-N resends once the ACK moves. A socket sender keeps a
/// two-frame window, and no simulated fault plan the tests run comes near
/// it; a peer that opens a gap and never fills it costs the node at most
/// this many held messages.
pub(crate) const INBOX_SPAN: u64 = 1024;

/// The coordinator half of the reliable-delivery protocol: one inbox per
/// site. Releases messages in sequence order exactly once; duplicates and
/// stale retransmits are discarded idempotently, and frames more than
/// `INBOX_SPAN` ahead are discarded and counted.
#[derive(Debug, Clone, Default)]
pub struct ReliableInbox {
    next: u64,
    buffer: BTreeMap<u64, (Message, Option<TraceCtx>)>,
    duplicates: u64,
    overflows: u64,
}

impl ReliableInbox {
    /// A fresh inbox expecting sequence number 0.
    pub fn new() -> ReliableInbox {
        ReliableInbox::default()
    }

    /// Accepts a sequenced frame and returns every message that is now
    /// deliverable, in sequence order. A stale or duplicate sequence
    /// number yields nothing (but the caller should still ACK — the
    /// retransmit means the site has not seen the ACK yet).
    pub fn accept(&mut self, seq: u64, message: Message) -> Vec<Message> {
        self.accept_traced(seq, message, None).into_iter().map(|(m, _)| m).collect()
    }

    /// Like [`ReliableInbox::accept`], preserving each released message's
    /// trace context. Because release is exactly-once, the caller can
    /// close each context's wire span exactly once no matter how many
    /// duplicates arrived.
    pub(crate) fn accept_traced(
        &mut self,
        seq: u64,
        message: Message,
        ctx: Option<TraceCtx>,
    ) -> Vec<(Message, Option<TraceCtx>)> {
        if seq < self.next || self.buffer.contains_key(&seq) {
            self.duplicates += 1;
            return Vec::new();
        }
        if seq - self.next >= INBOX_SPAN {
            self.overflows += 1;
            return Vec::new();
        }
        self.buffer.insert(seq, (message, ctx));
        let mut ready = Vec::new();
        while let Some(entry) = self.buffer.remove(&self.next) {
            ready.push(entry);
            self.next += 1;
        }
        ready
    }

    /// The cumulative ACK to answer with: every sequence number `<` this
    /// has been delivered to the application.
    pub fn cumulative(&self) -> u64 {
        self.next
    }

    /// Duplicate or stale frames discarded so far.
    pub(crate) fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Frames discarded so far for arriving [`INBOX_SPAN`] or more past
    /// the cumulative ACK.
    pub(crate) fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_gmm::Gaussian;
    use cludistream_linalg::Vector;

    fn mixture() -> Mixture {
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[1.0, 2.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[5.0, -1.0]), 2.0).unwrap(),
            ],
            vec![0.3, 0.7],
        )
        .unwrap()
    }

    #[test]
    fn new_model_roundtrip() {
        let msg = Message::NewModel {
            site: 3,
            model: ModelId(9),
            count: 1567,
            avg_ll: -2.5,
            mixture: mixture(),
        };
        let bytes = msg.encode(CovarianceType::Full);
        assert_eq!(bytes.len(), msg.wire_bytes(CovarianceType::Full));
        let back = Message::decode(&mut bytes.reader()).unwrap();
        match back {
            Message::NewModel { site, model, count, avg_ll, mixture: m } => {
                assert_eq!(site, 3);
                assert_eq!(model, ModelId(9));
                assert_eq!(count, 1567);
                assert_eq!(avg_ll, -2.5);
                assert_eq!(m.k(), 2);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn weight_update_roundtrip_and_size() {
        let msg = Message::WeightUpdate { site: 1, model: ModelId(4), count_delta: 100 };
        let bytes = msg.encode(CovarianceType::Full);
        assert_eq!(bytes.len(), 21);
        match Message::decode(&mut bytes.reader()).unwrap() {
            Message::WeightUpdate { site, model, count_delta } => {
                assert_eq!((site, model, count_delta), (1, ModelId(4), 100));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn delete_roundtrip() {
        let msg = Message::Delete { site: 2, model: ModelId(0), count_delta: 42 };
        let bytes = msg.encode(CovarianceType::Full);
        match Message::decode(&mut bytes.reader()).unwrap() {
            Message::Delete { site, model, count_delta } => {
                assert_eq!((site, model, count_delta), (2, ModelId(0), 42));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn weight_update_is_much_smaller_than_synopsis() {
        let synopsis = Message::NewModel {
            site: 0,
            model: ModelId(0),
            count: 1,
            avg_ll: 0.0,
            mixture: mixture(),
        };
        let update = Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 1 };
        assert!(
            update.wire_bytes(CovarianceType::Full) * 5
                < synopsis.wire_bytes(CovarianceType::Full),
            "stability saves little: {} vs {}",
            update.wire_bytes(CovarianceType::Full),
            synopsis.wire_bytes(CovarianceType::Full)
        );
    }

    #[test]
    fn from_site_event_maps_variants() {
        let ev = SiteEvent::WeightUpdate { model: ModelId(1), count_delta: 7 };
        assert!(matches!(
            Message::from_site_event(5, ev),
            Message::WeightUpdate { site: 5, model: ModelId(1), count_delta: 7 }
        ));
        let ev = SiteEvent::NewModel {
            model: ModelId(2),
            mixture: mixture(),
            count: 10,
            avg_ll: -1.0,
        };
        assert!(matches!(Message::from_site_event(6, ev), Message::NewModel { site: 6, .. }));
        let ev = SiteEvent::Retired { model: ModelId(3), count: 42 };
        assert!(matches!(
            Message::from_site_event(7, ev),
            Message::Delete { site: 7, model: ModelId(3), count_delta: 42 }
        ));
    }

    #[test]
    fn truncated_and_corrupt_rejected() {
        let msg = Message::WeightUpdate { site: 1, model: ModelId(4), count_delta: 100 };
        let bytes = msg.encode(CovarianceType::Full);
        assert!(Message::decode(&mut bytes.slice(..5).reader()).is_err());
        assert!(Message::decode(&mut bytes.slice(..HEADER_BYTES).reader()).is_err());
        let mut corrupt = bytes.clone();
        corrupt[0] = 77; // unknown tag
        assert!(Message::decode(&mut corrupt.reader()).is_err());
    }

    #[test]
    fn diagonal_covariance_messages_are_smaller_and_roundtrip() {
        let msg = Message::NewModel {
            site: 0,
            model: ModelId(1),
            count: 10,
            avg_ll: -1.0,
            mixture: mixture(),
        };
        let full = msg.encode(CovarianceType::Full);
        let diag = msg.encode(CovarianceType::Diagonal);
        assert!(diag.len() < full.len());
        assert_eq!(diag.len(), msg.wire_bytes(CovarianceType::Diagonal));
        match Message::decode(&mut diag.reader()).unwrap() {
            Message::NewModel { mixture: m, .. } => {
                assert_eq!(m.k(), 2);
                // Off-diagonals dropped by the d-vector representation.
                assert_eq!(m.components()[0].cov()[(0, 1)], 0.0);
                assert!(m.components()[0].is_diagonal());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn accessors() {
        let msg = Message::Delete { site: 2, model: ModelId(8), count_delta: 1 };
        assert_eq!(msg.site(), 2);
        assert_eq!(model_of(&msg), 8);
    }

    // ---- reliable delivery ----

    fn update(n: u64) -> Message {
        Message::WeightUpdate { site: 0, model: ModelId(n), count_delta: n }
    }

    fn model_of(m: &Message) -> u64 {
        match m {
            Message::NewModel { model, .. }
            | Message::WeightUpdate { model, .. }
            | Message::Delete { model, .. } => model.0,
        }
    }

    #[test]
    fn frame_roundtrips_and_bare_matches_legacy_encoding() {
        let cov = CovarianceType::Full;
        let msg = update(4);
        // Bare frames are the legacy bytes, bit for bit.
        let bare = Frame::Bare(msg.clone()).encode(cov);
        assert_eq!(bare.as_slice(), msg.encode(cov).as_slice());
        assert!(matches!(Frame::decode(&mut bare.reader()).unwrap(), Frame::Bare(_)));

        let data = Frame::Data { seq: 17, message: msg.clone(), ctx: None };
        let bytes = data.encode(cov);
        assert_eq!(bytes.len(), data.wire_bytes(cov));
        assert_eq!(bytes.len(), DATA_OVERHEAD_BYTES + msg.wire_bytes(cov));
        match Frame::decode(&mut bytes.reader()).unwrap() {
            Frame::Data { seq, message, ctx } => {
                assert_eq!(seq, 17);
                assert_eq!(model_of(&message), 4);
                assert_eq!(ctx, None);
            }
            other => panic!("wrong variant {other:?}"),
        }

        let ack = Frame::Ack { cumulative: 9 };
        let bytes = ack.encode(cov);
        assert_eq!(bytes.len(), ACK_BYTES);
        match Frame::decode(&mut bytes.reader()).unwrap() {
            Frame::Ack { cumulative } => assert_eq!(cumulative, 9),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn frame_decode_rejects_garbage() {
        let empty = ByteBuf::new();
        assert!(Frame::decode(&mut empty.reader()).is_err());
        let mut bad = ByteBuf::new();
        bad.put_u8(77);
        assert!(Frame::decode(&mut bad.reader()).is_err());
        let mut short_ack = ByteBuf::new();
        short_ack.put_u8(5);
        short_ack.put_u32_le(1);
        assert!(Frame::decode(&mut short_ack.reader()).is_err());
    }

    #[test]
    fn inbox_discards_duplicates_idempotently() {
        let mut inbox = ReliableInbox::new();
        assert_eq!(inbox.accept(0, update(0)).len(), 1);
        // Same frame retransmitted: discarded, but cumulative unchanged so
        // the site still gets an ACK telling it to stop.
        assert!(inbox.accept(0, update(0)).is_empty());
        assert!(inbox.accept(0, update(0)).is_empty());
        assert_eq!(inbox.duplicates(), 2);
        assert_eq!(inbox.cumulative(), 1);
        assert_eq!(inbox.accept(1, update(1)).len(), 1);
        assert_eq!(inbox.cumulative(), 2);
    }

    #[test]
    fn inbox_releases_out_of_order_frames_in_sequence() {
        let mut inbox = ReliableInbox::new();
        assert!(inbox.accept(2, update(2)).is_empty(), "gap: buffered");
        assert!(inbox.accept(1, update(1)).is_empty(), "still gapped");
        assert_eq!(inbox.buffer.len(), 2);
        assert_eq!(inbox.cumulative(), 0);
        // The gap fill releases the whole run, in order.
        let ready = inbox.accept(0, update(0));
        assert_eq!(ready.iter().map(model_of).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(inbox.cumulative(), 3);
        assert_eq!(inbox.buffer.len(), 0);
        // A duplicate of a buffered-then-released frame is stale now.
        assert!(inbox.accept(2, update(2)).is_empty());
        assert_eq!(inbox.duplicates(), 1);
    }

    #[test]
    fn inbox_holds_at_most_its_span_past_a_gap_that_is_never_filled() {
        let mut inbox = ReliableInbox::new();
        // A peer sends next + 1 … next + 100 000 and never sends `next`.
        for seq in 1..=100_000 {
            assert!(inbox.accept(seq, update(seq)).is_empty());
            assert!(inbox.buffer.len() as u64 <= INBOX_SPAN);
        }
        assert_eq!(inbox.buffer.len() as u64, INBOX_SPAN - 1);
        assert_eq!(inbox.overflows(), 100_000 - (INBOX_SPAN - 1));
        assert_eq!((inbox.cumulative(), inbox.duplicates()), (0, 0));
        // The gap fill releases the held prefix, in order.
        let ready = inbox.accept(0, update(0));
        assert_eq!(ready.iter().map(model_of).collect::<Vec<_>>(), (0..INBOX_SPAN).collect::<Vec<_>>());
        assert_eq!((inbox.cumulative(), inbox.buffer.len()), (INBOX_SPAN, 0));
        // Go-back-N resends what was discarded; it is now in order.
        assert_eq!(inbox.accept(INBOX_SPAN, update(INBOX_SPAN)).len(), 1);
        assert_eq!(inbox.cumulative(), INBOX_SPAN + 1);
    }

    #[test]
    fn sender_retransmits_with_exponential_backoff() {
        let mut sender = ReliableSender::new(1_000, 10_000);
        assert!(sender.on_timeout().is_empty(), "nothing pending, no retransmit");
        let f0 = sender.send(update(0));
        let f1 = sender.send(update(1));
        assert!(matches!(f0, Frame::Data { seq: 0, .. }));
        assert!(matches!(f1, Frame::Data { seq: 1, .. }));
        assert_eq!(sender.pending(), 2);
        assert_eq!(sender.next_timeout_us(), 1_000);

        // First timeout: both frames go back on the wire, backoff doubles.
        let retx = sender.on_timeout();
        assert_eq!(retx.len(), 2);
        assert_eq!(sender.next_timeout_us(), 2_000);
        sender.on_timeout();
        sender.on_timeout();
        sender.on_timeout();
        assert_eq!(sender.next_timeout_us(), 10_000, "capped at max");
        assert_eq!(sender.retransmitted_messages, 8);

        // Progress resets the backoff; acked frames leave the queue.
        assert_eq!(sender.on_ack(1), 1);
        assert_eq!(sender.pending(), 1);
        assert_eq!(sender.next_timeout_us(), 1_000);
        // A stale ACK changes nothing.
        assert_eq!(sender.on_ack(1), 0);
        assert_eq!(sender.on_ack(2), 1);
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn sender_snapshot_roundtrips_unacked_queue() {
        let cov = CovarianceType::Full;
        let mut sender = ReliableSender::new(500, 8_000);
        sender.send(update(0));
        sender.send(update(1));
        sender.on_ack(1);
        sender.send(Message::NewModel {
            site: 0,
            model: ModelId(2),
            count: 5,
            avg_ll: -1.0,
            mixture: mixture(),
        });
        let mut buf = ByteBuf::new();
        sender.snapshot(cov, &mut buf);
        let restored = ReliableSender::restore(500, 8_000, &mut buf.reader()).unwrap();
        assert_eq!(restored.pending(), 2);
        assert_eq!(restored.next_timeout_us(), 500, "backoff is volatile");
        // The restored sender continues the sequence where it left off.
        let mut restored = restored;
        assert!(matches!(restored.send(update(9)), Frame::Data { seq: 3, .. }));
        let retx = restored.on_timeout();
        assert_eq!(retx.len(), 3);
        assert!(matches!(retx[0], Frame::Data { seq: 1, .. }));
    }

    #[test]
    fn sender_restore_rejects_truncation() {
        let cov = CovarianceType::Full;
        let mut sender = ReliableSender::new(500, 8_000);
        sender.send(update(0));
        let mut buf = ByteBuf::new();
        sender.snapshot(cov, &mut buf);
        for cut in [0, 8, 17, buf.len() - 1] {
            assert!(
                ReliableSender::restore(500, 8_000, &mut buf.slice(..cut).reader()).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn lossy_duplicate_reordered_link_converges() {
        // Simulate a nasty link by hand: drop every third frame, deliver
        // the rest twice in reverse order, until the sender drains.
        let mut sender = ReliableSender::new(1_000, 16_000);
        let mut inbox = ReliableInbox::new();
        let mut delivered = Vec::new();
        let mut wire: Vec<Frame> = (0..10).map(|i| sender.send(update(i))).collect();
        let mut round = 0;
        while sender.pending() > 0 {
            round += 1;
            assert!(round < 50, "must converge");
            let mut batch: Vec<Frame> = wire
                .drain(..)
                .enumerate()
                .filter(|(i, _)| (i + round) % 3 != 0)
                .map(|(_, f)| f)
                .collect();
            batch.reverse();
            let dups: Vec<Frame> = batch.clone();
            for frame in batch.into_iter().chain(dups) {
                if let Frame::Data { seq, message, .. } = frame {
                    delivered.extend(inbox.accept(seq, message));
                }
            }
            sender.on_ack(inbox.cumulative());
            wire = sender.on_timeout();
        }
        assert_eq!(delivered.iter().map(model_of).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        assert!(inbox.duplicates() > 0);
    }

    // ---- trace context ----

    fn ctx(trace: u64, span: u64) -> TraceCtx {
        TraceCtx { trace: TraceId(trace), span: SpanId(span) }
    }

    #[test]
    fn traced_frame_roundtrips_and_untraced_bytes_are_unchanged() {
        let cov = CovarianceType::Full;
        let msg = update(4);
        let plain = Frame::Data { seq: 3, message: msg.clone(), ctx: None };
        let traced = Frame::Data { seq: 3, message: msg.clone(), ctx: Some(ctx(7, 99)) };
        let plain_bytes = plain.encode(cov);
        let traced_bytes = traced.encode(cov);
        // The untraced encoding is the legacy TAG_DATA layout; the traced
        // one costs exactly the context bytes more.
        assert_eq!(plain_bytes[0], TAG_DATA);
        assert_eq!(traced_bytes[0], TAG_TRACED);
        assert_eq!(traced_bytes.len(), plain_bytes.len() + TRACE_CTX_BYTES);
        assert_eq!(traced_bytes.len(), traced.wire_bytes(cov));
        match Frame::decode(&mut traced_bytes.reader()).unwrap() {
            Frame::Data { seq, message, ctx: c } => {
                assert_eq!(seq, 3);
                assert_eq!(model_of(&message), 4);
                assert_eq!(c, Some(ctx(7, 99)));
            }
            other => panic!("wrong variant {other:?}"),
        }
        // Truncated traced frames are rejected.
        assert!(Frame::decode(&mut traced_bytes.slice(..10).reader()).is_err());
    }

    #[test]
    fn retransmits_and_snapshots_keep_the_originating_ctx() {
        let cov = CovarianceType::Full;
        let mut sender = ReliableSender::new(1_000, 16_000);
        sender.send_traced(update(0), Some(ctx(1, 10)));
        sender.send(update(1)); // untraced in the same queue
        let retx = sender.on_timeout();
        assert!(matches!(retx[0], Frame::Data { seq: 0, ctx: Some(c), .. } if c == ctx(1, 10)));
        assert!(matches!(retx[1], Frame::Data { seq: 1, ctx: None, .. }));
        // Checkpoint/restore: the context survives, so a restored site's
        // retransmits still land under the original span.
        let mut buf = ByteBuf::new();
        sender.snapshot(cov, &mut buf);
        let mut restored = ReliableSender::restore(1_000, 16_000, &mut buf.reader()).unwrap();
        let retx = restored.on_timeout();
        assert!(matches!(retx[0], Frame::Data { seq: 0, ctx: Some(c), .. } if c == ctx(1, 10)));
        assert!(matches!(retx[1], Frame::Data { seq: 1, ctx: None, .. }));
    }

    #[test]
    fn inbox_releases_each_ctx_exactly_once() {
        let mut inbox = ReliableInbox::new();
        assert!(inbox.accept_traced(1, update(1), Some(ctx(1, 11))).is_empty());
        let ready = inbox.accept_traced(0, update(0), Some(ctx(1, 10)));
        let ctxs: Vec<_> = ready.iter().map(|(_, c)| *c).collect();
        assert_eq!(ctxs, vec![Some(ctx(1, 10)), Some(ctx(1, 11))]);
        // Duplicates of released frames yield nothing: the wire span is
        // closed exactly once.
        assert!(inbox.accept_traced(0, update(0), Some(ctx(1, 10))).is_empty());
        assert!(inbox.accept_traced(1, update(1), Some(ctx(1, 11))).is_empty());
        assert_eq!(inbox.duplicates(), 2);
    }
}
