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
//! Metric names cross the wire as strings but the registry keys on
//! `&'static str`; [`intern`] bridges the two by leaking each *unique*
//! name once. The vocabulary is bounded (a fixed set of instrument names
//! times the site count), so the leak is a one-time cost, not a growth.

use crate::trace::{SpanId, SpanRecord, TraceId};
use cludistream_wire::{ByteBuf, ByteReader};
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Version byte leading every encoded delta; bump on layout change.
pub const TELEMETRY_VERSION: u8 = 1;

/// Returns a `&'static str` equal to `name`, leaking each unique string
/// at most once. Used when decoding wire metric names into registry keys
/// and when synthesizing per-site names (`site3.em.cost_us`).
pub fn intern(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    // A poisoned pool is still a valid set (an insert either happened or
    // did not), and this runs while decoding peer telemetry: recover.
    let mut pool = POOL
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = pool.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Everything one site recorded since its previous telemetry flush.
///
/// Produced by [`crate::Registry::drain_telemetry`], encoded into a
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
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values set since the last flush (last write wins),
    /// name-sorted.
    pub gauges: Vec<(&'static str, f64)>,
    /// Raw histogram observations since the last flush, in record order
    /// grouped by name.
    pub observations: Vec<(&'static str, Vec<u64>)>,
    /// Span records newly visible since the last flush (still on the
    /// site's local clock; the aggregator rebases them).
    pub spans: Vec<SpanRecord>,
    /// Flight-recorder lines (JSONL event strings), present only on the
    /// first flush after a crash-resync so post-mortems reach the
    /// coordinator journal.
    pub flight: Vec<String>,
}

impl TelemetryDelta {
    /// True when the delta carries nothing worth transmitting.
    pub fn is_empty(&self) -> bool {
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
            buf.put_var_str(name);
            buf.put_u64_le(*delta);
        }
        buf.put_u32_le(self.gauges.len() as u32);
        for (name, value) in &self.gauges {
            buf.put_var_str(name);
            buf.put_f64_le(*value);
        }
        buf.put_u32_le(self.observations.len() as u32);
        for (name, values) in &self.observations {
            buf.put_var_str(name);
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
            buf.put_var_str(s.name);
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

    /// Decodes a delta, checking `remaining()` before every fixed-width
    /// read so malformed input is an `Err`, never a panic. Metric and
    /// span names are interned.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TelemetryDelta, &'static str> {
        fn need(r: &ByteReader<'_>, bytes: usize) -> Result<(), &'static str> {
            if r.remaining() < bytes {
                Err("truncated telemetry delta")
            } else {
                Ok(())
            }
        }
        fn count(r: &mut ByteReader<'_>) -> Result<usize, &'static str> {
            need(r, 4)?;
            Ok(r.get_u32_le() as usize)
        }
        fn name(r: &mut ByteReader<'_>) -> Result<&'static str, &'static str> {
            let s = r.get_var_str().ok_or("bad telemetry string")?;
            Ok(intern(&s))
        }

        need(r, 1 + 4 + 8)?;
        let version = r.get_u8();
        if version != TELEMETRY_VERSION {
            return Err("unknown telemetry version");
        }
        let site = r.get_u32_le();
        let local_now_us = r.get_u64_le();
        let mut delta = TelemetryDelta { site, local_now_us, ..TelemetryDelta::default() };
        for _ in 0..count(r)? {
            let n = name(r)?;
            need(r, 8)?;
            delta.counters.push((n, r.get_u64_le()));
        }
        for _ in 0..count(r)? {
            let n = name(r)?;
            need(r, 8)?;
            delta.gauges.push((n, r.get_f64_le()));
        }
        for _ in 0..count(r)? {
            let n = name(r)?;
            let k = count(r)?;
            need(r, k.checked_mul(8).ok_or("bad observation count")?)?;
            let mut values = Vec::with_capacity(k);
            for _ in 0..k {
                values.push(r.get_u64_le());
            }
            delta.observations.push((n, values));
        }
        for _ in 0..count(r)? {
            need(r, 8 * 3)?;
            let trace = TraceId(r.get_u64_le());
            let span = SpanId(r.get_u64_le());
            let parent_raw = r.get_u64_le();
            let sname = name(r)?;
            need(r, 4 + 8 * 3)?;
            delta.spans.push(SpanRecord {
                trace,
                span,
                parent: (parent_raw != 0).then_some(SpanId(parent_raw)),
                name: sname,
                node: r.get_u32_le(),
                start_us: r.get_u64_le(),
                end_us: r.get_u64_le(),
                cost_us: r.get_u64_le(),
            });
        }
        for _ in 0..count(r)? {
            delta.flight.push(r.get_var_str().ok_or("bad flight line")?);
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryDelta {
        TelemetryDelta {
            site: 3,
            local_now_us: 42_000,
            counters: vec![(intern("net.bytes"), 512), (intern("site.chunks"), 2)],
            gauges: vec![(intern("coord.groups"), 2.5)],
            observations: vec![
                (intern("em.cost_us"), vec![120, 80, 3000]),
                (intern("hb.rtt_us"), vec![]),
            ],
            spans: vec![SpanRecord {
                trace: TraceId::new(3, 7),
                span: SpanId::new(3, 1),
                parent: Some(SpanId::new(3, 9)),
                name: intern("site.chunk"),
                node: 3,
                start_us: 100,
                end_us: 900,
                cost_us: 40,
            }],
            flight: vec!["{\"t\":0,\"event\":\"ReMerge\",\"group\":1}".to_owned()],
        }
    }

    #[test]
    fn intern_dedups_and_is_stable() {
        let a = intern("em.cost_us");
        let b = intern(&"em.cost_us".to_owned());
        assert_eq!(a as *const str, b as *const str);
        assert_eq!(a, "em.cost_us");
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
            name: intern("root"),
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
