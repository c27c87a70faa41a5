//! The fleet telemetry delta: what one site ships to the coordinator on
//! the heartbeat cadence.
//!
//! A socket-runtime round leaves one isolated [`crate::Registry`] per
//! process; this module defines the wire unit that re-unifies them. A
//! [`TelemetryDelta`] carries everything a site recorded *since its last
//! flush* — counter increments, gauge values, raw histogram observations,
//! closed span records, and (after a crash-resync) the flight-recorder
//! ring — encoded with `cludistream-wire` primitives so the control plane
//! stays zero-dependency.
//!
//! Observations travel as **raw values**, not merged sketches: the
//! Greenwald–Khanna sketch has no merge operation, so the fleet registry
//! re-inserts each value and its quantiles stay exact. Deltas are small
//! (a site records a handful of observations per chunk) and ride the
//! existing heartbeat cadence, so the control-plane overhead is bounded
//! and separately accounted (`net.ctrl_bytes`).
//!
//! Names cross the wire as strings, and the [`crate::catalogue`] is the
//! contract: decoding maps each one onto its declared entry, and a name
//! that is not declared with the kind of its section is skipped and
//! counted ([`TelemetryDelta::unknown`]). A peer can therefore neither
//! mint a registry key nor grow the node that decodes it.

use crate::catalogue::{lookup, Counter, Gauge, Histogram, SpanName};
use crate::catalogue::{OBS_UNKNOWN_SERIES, ROUND_STATE};
use crate::trace::{SpanId, SpanRecord, TraceId};
use cludistream_wire::{ByteBuf, ByteReader, Malformed, Truncated};

/// Version byte leading every encoded delta; bump on layout change.
pub const TELEMETRY_VERSION: u8 = 1;

/// Declared names only the decoding parent records (a child's liveness as
/// it sees it, the names it skipped): a peer that sends one is spoofing.
const PARENT_ONLY: [&str; 2] = [ROUND_STATE.as_str(), OBS_UNKNOWN_SERIES.as_str()];

/// Everything one site recorded since its previous telemetry flush.
///
/// Produced by [`crate::Recorder::drain_telemetry`], encoded into a
/// `Control::Telemetry` frame by the socket runtime, and folded into the
/// coordinator's fleet registry by [`crate::FleetAggregator::apply`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryDelta {
    /// Originating site index (stamped by the sender).
    pub site: u32,
    /// The site's local clock when the delta was drained, microseconds
    /// since its process epoch. Lets the coordinator sanity-check the
    /// clock-offset estimate from the handshake.
    pub local_now_us: u64,
    /// Counter increments since the last flush, name-sorted.
    pub counters: Vec<(Counter, u64)>,
    /// Gauge values set since the last flush (last write wins),
    /// name-sorted.
    pub gauges: Vec<(Gauge, f64)>,
    /// Raw histogram observations since the last flush, in record order
    /// grouped by name.
    pub observations: Vec<(Histogram, Vec<u64>)>,
    /// Span records newly visible since the last flush (still on the
    /// site's local clock; the aggregator rebases them).
    pub spans: Vec<SpanRecord>,
    /// Flight-recorder lines (JSONL event strings), present only on the
    /// first flush after a crash-resync so post-mortems reach the
    /// coordinator journal.
    pub flight: Vec<String>,
    /// Names [`TelemetryDelta::decode`] skipped: undeclared, or declared
    /// with another kind than their section's. Never encoded; the fleet
    /// counts them as `obs.unknown_series`.
    pub unknown: u64,
}

impl TelemetryDelta {
    /// True when the delta carries nothing worth transmitting.
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.observations.is_empty()
            && self.spans.is_empty()
            && self.flight.is_empty()
    }

    /// Encodes the delta. Layout (all integers little-endian):
    ///
    /// ```text
    /// u8  version (= TELEMETRY_VERSION)
    /// u32 site | u64 local_now_us
    /// u32 n_counters     | n × (var_str name, u64 delta)
    /// u32 n_gauges       | n × (var_str name, f64 value)
    /// u32 n_observations | n × (var_str name, u32 k, k × u64 value)
    /// u32 n_spans        | n × (u64 trace, u64 span, u64 parent(0=None),
    ///                           var_str name, u32 node,
    ///                           u64 start_us, u64 end_us, u64 cost_us)
    /// u32 n_flight       | n × var_str line
    /// ```
    ///
    /// `var_str` is the `u32-le length | UTF-8 bytes` layout of
    /// [`ByteBuf::put_var_str`].
    pub fn encode(&self) -> ByteBuf {
        let mut buf = ByteBuf::new();
        buf.put_u8(TELEMETRY_VERSION);
        buf.put_u32_le(self.site);
        buf.put_u64_le(self.local_now_us);
        buf.put_u32_le(self.counters.len() as u32);
        for (name, delta) in &self.counters {
            buf.put_var_str(name.as_str());
            buf.put_u64_le(*delta);
        }
        buf.put_u32_le(self.gauges.len() as u32);
        for (name, value) in &self.gauges {
            buf.put_var_str(name.as_str());
            buf.put_f64_le(*value);
        }
        buf.put_u32_le(self.observations.len() as u32);
        for (name, values) in &self.observations {
            buf.put_var_str(name.as_str());
            buf.put_u32_le(values.len() as u32);
            for v in values {
                buf.put_u64_le(*v);
            }
        }
        buf.put_u32_le(self.spans.len() as u32);
        for s in &self.spans {
            buf.put_u64_le(s.trace.0);
            buf.put_u64_le(s.span.0);
            buf.put_u64_le(s.parent.map_or(0, |p| p.0));
            buf.put_var_str(s.name.as_str());
            buf.put_u32_le(s.node);
            buf.put_u64_le(s.start_us);
            buf.put_u64_le(s.end_us);
            buf.put_u64_le(s.cost_us);
        }
        buf.put_u32_le(self.flight.len() as u32);
        for line in &self.flight {
            buf.put_var_str(line);
        }
        buf
    }

    /// Decodes a delta. Input that ends early (or a string that is not
    /// UTF-8) is "truncated telemetry delta", never a panic, and no count
    /// sizes anything before its items are shown present. Every name is
    /// looked up in the catalogue: an entry of the section's kind becomes
    /// its handle, anything else (parent-only entries included) is skipped,
    /// a span with its whole record, and counted in
    /// [`TelemetryDelta::unknown`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TelemetryDelta, &'static str> {
        Self::read(r).map_err(|e| e.named("truncated telemetry delta"))
    }

    fn read(r: &mut ByteReader<'_>) -> Result<TelemetryDelta, Malformed<&'static str>> {
        /// The declared name of `kind` the next string spells, `None`
        /// (counted) for anything else.
        fn name(
            r: &mut ByteReader<'_>,
            kind: &str,
            unknown: &mut u64,
        ) -> Result<Option<&'static str>, Truncated> {
            let s = r.get_var_str()?;
            let found = lookup(&s).filter(|e| e.kind == kind && !PARENT_ONLY.contains(&e.name));
            *unknown += u64::from(found.is_none());
            Ok(found.map(|e| e.name))
        }

        if r.get_u8()? != TELEMETRY_VERSION {
            return Err(Malformed::Invalid("unknown telemetry version"));
        }
        let site = r.get_u32_le()?;
        let local_now_us = r.get_u64_le()?;
        let mut d = TelemetryDelta { site, local_now_us, ..TelemetryDelta::default() };
        for _ in 0..r.get_u32_le()? {
            let n = name(r, Counter::KIND, &mut d.unknown)?;
            let value = r.get_u64_le()?;
            d.counters.extend(n.map(|n| (Counter(n), value)));
        }
        for _ in 0..r.get_u32_le()? {
            let n = name(r, Gauge::KIND, &mut d.unknown)?;
            let value = r.get_f64_le()?;
            d.gauges.extend(n.map(|n| (Gauge(n), value)));
        }
        for _ in 0..r.get_u32_le()? {
            let n = name(r, Histogram::KIND, &mut d.unknown)?;
            let k = r.get_u32_le()? as usize;
            let values = r.items(k, 8, ByteReader::get_u64_le)?;
            d.observations.extend(n.map(|n| (Histogram(n), values)));
        }
        for _ in 0..r.get_u32_le()? {
            let trace = TraceId(r.get_u64_le()?);
            let span = SpanId(r.get_u64_le()?);
            let parent_raw = r.get_u64_le()?;
            let n = name(r, SpanName::KIND, &mut d.unknown)?;
            let (node, start_us, end_us, cost_us) =
                (r.get_u32_le()?, r.get_u64_le()?, r.get_u64_le()?, r.get_u64_le()?);
            d.spans.extend(n.map(|n| SpanRecord {
                trace,
                span,
                parent: (parent_raw != 0).then_some(SpanId(parent_raw)),
                name: SpanName(n),
                node,
                start_us,
                end_us,
                cost_us,
            }));
        }
        for _ in 0..r.get_u32_le()? {
            d.flight.push(r.get_var_str()?);
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{
        COORD_GROUPS, EM_ITERS_PER_FIT, HB_RTT_US, NET_BYTES, SITE_CHUNK, SITE_RECORDS,
    };

    fn sample() -> TelemetryDelta {
        TelemetryDelta {
            site: 3,
            local_now_us: 42_000,
            counters: vec![(NET_BYTES, 512), (SITE_RECORDS, 2)],
            gauges: vec![(COORD_GROUPS, 2.5)],
            observations: vec![(EM_ITERS_PER_FIT, vec![120, 80, 3000]), (HB_RTT_US, vec![])],
            spans: vec![SpanRecord {
                trace: TraceId::new(3, 7),
                span: SpanId::new(3, 1),
                parent: Some(SpanId::new(3, 9)),
                name: SITE_CHUNK,
                node: 3,
                start_us: 100,
                end_us: 900,
                cost_us: 40,
            }],
            flight: vec!["{\"t\":0,\"event\":\"ReMerge\",\"group\":1}".to_owned()],
            unknown: 0,
        }
    }

    /// The documented layout, byte for byte: what a peer built before
    /// names were typed still decodes, and what this one encodes is what
    /// such a peer expects.
    #[test]
    fn encoding_is_the_documented_layout() {
        let mut want = ByteBuf::new();
        want.put_u8(TELEMETRY_VERSION);
        want.put_u32_le(3);
        want.put_u64_le(42_000);
        want.put_u32_le(2);
        for (name, v) in [("net.bytes", 512), ("site.records", 2)] {
            want.put_var_str(name);
            want.put_u64_le(v);
        }
        want.put_u32_le(1);
        want.put_var_str("coord.groups");
        want.put_f64_le(2.5);
        want.put_u32_le(2);
        want.put_var_str("em.iters_per_fit");
        want.put_u32_le(3);
        for v in [120, 80, 3000] {
            want.put_u64_le(v);
        }
        want.put_var_str("hb.rtt_us");
        want.put_u32_le(0);
        want.put_u32_le(1);
        for v in [TraceId::new(3, 7).0, SpanId::new(3, 1).0, SpanId::new(3, 9).0] {
            want.put_u64_le(v);
        }
        want.put_var_str("site.chunk");
        want.put_u32_le(3);
        for v in [100, 900, 40] {
            want.put_u64_le(v);
        }
        want.put_u32_le(1);
        want.put_var_str("{\"t\":0,\"event\":\"ReMerge\",\"group\":1}");
        assert_eq!(sample().encode().as_slice(), want.as_slice());
    }

    /// An undeclared name, a declared one in another kind's section, or a
    /// parent-only one is skipped with its value (a span with its record)
    /// and counted; the declared names around it still decode.
    #[test]
    fn undeclared_wrong_kind_and_parent_only_names_are_skipped_and_counted() {
        let mut buf = ByteBuf::new();
        buf.put_u8(TELEMETRY_VERSION);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(4); // counters
        for name in ["made.up", "coord.groups", "obs.unknown_series", "net.bytes"] {
            buf.put_var_str(name);
            buf.put_u64_le(7);
        }
        buf.put_u32_le(2); // gauges
        for name in ["net.bytes", "round_state"] {
            buf.put_var_str(name);
            buf.put_f64_le(1.0);
        }
        buf.put_u32_le(1); // observations
        buf.put_var_str("site.chunk");
        buf.put_u32_le(2);
        buf.put_u64_le(1);
        buf.put_u64_le(2);
        buf.put_u32_le(1); // spans
        for v in [1, 2, 0] {
            buf.put_u64_le(v);
        }
        buf.put_var_str("hb.rtt_us");
        buf.put_u32_le(0);
        for v in [0, 0, 0] {
            buf.put_u64_le(v);
        }
        buf.put_u32_le(0); // flight
        let d = TelemetryDelta::decode(&mut buf.reader()).expect("well-formed");
        assert_eq!(d.counters, vec![(NET_BYTES, 7)]);
        assert!(d.gauges.is_empty() && d.observations.is_empty() && d.spans.is_empty());
        assert_eq!(d.unknown, 7);
    }

    #[test]
    fn roundtrip() {
        let delta = sample();
        let bytes = delta.encode();
        let decoded = TelemetryDelta::decode(&mut bytes.reader()).expect("decode");
        assert_eq!(decoded, delta);
    }

    #[test]
    fn roundtrip_empty() {
        let delta = TelemetryDelta::default();
        assert!(delta.is_empty());
        let decoded = TelemetryDelta::decode(&mut delta.encode().reader()).expect("decode");
        assert_eq!(decoded, delta);
    }

    #[test]
    fn none_parent_survives() {
        let mut delta = TelemetryDelta::default();
        delta.spans.push(SpanRecord {
            trace: TraceId::new(0, 0),
            span: SpanId::new(0, 1),
            parent: None,
            name: SITE_CHUNK,
            node: 0,
            start_us: 5,
            end_us: 6,
            cost_us: 0,
        });
        let decoded = TelemetryDelta::decode(&mut delta.encode().reader()).expect("decode");
        assert_eq!(decoded.spans[0].parent, None);
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let cut = bytes.slice(..len);
            assert!(
                TelemetryDelta::decode(&mut cut.reader()).is_err(),
                "truncation at {len} must fail"
            );
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = TELEMETRY_VERSION + 1;
        assert_eq!(
            TelemetryDelta::decode(&mut bytes.reader()),
            Err("unknown telemetry version")
        );
    }

    #[test]
    fn lying_length_prefix_is_rejected() {
        // A counter whose declared observation count would overflow the
        // remaining bytes must fail without panicking.
        let mut buf = ByteBuf::new();
        buf.put_u8(TELEMETRY_VERSION);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(0); // counters
        buf.put_u32_le(0); // gauges
        buf.put_u32_le(1); // observations
        buf.put_var_str("x");
        buf.put_u32_le(u32::MAX); // k way past the end
        assert!(TelemetryDelta::decode(&mut buf.reader()).is_err());
    }
}
