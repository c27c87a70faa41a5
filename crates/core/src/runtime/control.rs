//! Control-plane frames for the socket runtime.
//!
//! The data plane reuses [`crate::protocol::Frame`] unchanged (tags
//! 1–6); control frames claim tags from [`CONTROL_TAG_MIN`] upward, so
//! either side classifies an incoming payload by its first byte and the
//! synopsis bytes on the wire stay identical to the simulator's.
//!
//! The rendezvous handshake: a site connects and sends [`Control::Hello`]
//! (protocol version, site index, data dimension, covariance kind, and
//! whether it is resuming after a dropped connection). The coordinator
//! answers [`Control::Welcome`] — carrying its heartbeat/timeout policy
//! and the cumulative ACK for that site's inbox, which is what makes
//! reconnect a resync instead of a replay-from-zero — or a
//! [`Control::Reject`] naming the mismatched parameter. Once every site
//! has said hello the coordinator broadcasts [`Control::Start`]; sites
//! keep liveness with [`Control::Ping`], announce stream exhaustion with
//! [`Control::Done`], and disband on [`Control::Stop`].
//!
//! The telemetry plane rides the same tag space: sites piggyback
//! [`Control::Telemetry`] deltas on the heartbeat cadence, the
//! coordinator answers every ping with [`Control::Pong`] (per-site RTT),
//! estimates each site's clock offset with a Cristian-style
//! [`Control::ClockProbe`]/[`Control::ClockEcho`] exchange right after
//! `Welcome`, and serves live Prometheus scrapes through
//! [`Control::StatusRequest`]/[`Control::StatusReply`] on the same
//! listener.

use crate::error::CludiError;
use cludistream_gmm::CovarianceType;
use cludistream_wire::{ByteBuf, ByteReader, Malformed};

/// Version both ends must agree on before any data-plane traffic.
pub const PROTOCOL_VERSION: u16 = 1;

/// First payload byte at or above this value marks a control frame;
/// anything below is a data-plane [`crate::protocol::Frame`].
pub(crate) const CONTROL_TAG_MIN: u8 = 32;

const TAG_HELLO: u8 = 32;
const TAG_WELCOME: u8 = 33;
const TAG_REJECT: u8 = 34;
const TAG_START: u8 = 35;
const TAG_PING: u8 = 36;
const TAG_DONE: u8 = 37;
const TAG_STOP: u8 = 38;
const TAG_TELEMETRY: u8 = 39;
const TAG_PONG: u8 = 40;
const TAG_CLOCK_PROBE: u8 = 41;
const TAG_CLOCK_ECHO: u8 = 42;
const TAG_STATUS_REQUEST: u8 = 43;
const TAG_STATUS_REPLY: u8 = 44;
const TAG_SNAPSHOT_REQUEST: u8 = 45;
const TAG_SNAPSHOT_REPLY: u8 = 46;
const TAG_HEALTH_REQUEST: u8 = 47;
const TAG_HEALTH_REPLY: u8 = 48;

/// Why the coordinator refused a [`Control::Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Protocol version mismatch.
    Version,
    /// Data dimension mismatch.
    Dimension,
    /// Covariance kind mismatch.
    Covariance,
    /// Site index out of range (or already taken by a live connection).
    SiteIndex,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::Version => 1,
            RejectCode::Dimension => 2,
            RejectCode::Covariance => 3,
            RejectCode::SiteIndex => 4,
        }
    }

    fn from_u8(v: u8) -> Result<RejectCode, CludiError> {
        match v {
            1 => Ok(RejectCode::Version),
            2 => Ok(RejectCode::Dimension),
            3 => Ok(RejectCode::Covariance),
            4 => Ok(RejectCode::SiteIndex),
            _ => Err(CludiError::Decode("unknown reject code")),
        }
    }

    /// Human-readable name of the mismatched parameter, for operator
    /// diagnostics.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            RejectCode::Version => "protocol version",
            RejectCode::Dimension => "data dimension",
            RejectCode::Covariance => "covariance kind",
            RejectCode::SiteIndex => "site index",
        }
    }
}

fn cov_to_u8(cov: CovarianceType) -> u8 {
    match cov {
        CovarianceType::Full => 0,
        CovarianceType::Diagonal => 1,
    }
}

fn cov_from_u8(v: u8) -> Result<CovarianceType, CludiError> {
    match v {
        0 => Ok(CovarianceType::Full),
        1 => Ok(CovarianceType::Diagonal),
        _ => Err(CludiError::Decode("unknown covariance tag")),
    }
}

/// One alert rule's evaluated state, carried in [`Control::HealthReply`].
///
/// The wire twin of `cludistream_obs::AlertState`: the rule and metric
/// names, whether the rule is currently firing, and the observed value
/// against its threshold (both f64, transported as IEEE-754 bit
/// patterns so the reply is byte-deterministic for a given registry).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// The rule's name (e.g. `round-stalled`).
    pub name: String,
    /// The metric the rule reads.
    pub metric: String,
    /// `true` while the rule's predicate holds.
    pub firing: bool,
    /// The value the rule observed (NaN when the series is absent).
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

/// A socket-runtime control frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// Site → coordinator: rendezvous request.
    Hello {
        /// The site's [`PROTOCOL_VERSION`].
        version: u16,
        /// The site's index in `0..sites`.
        site: u32,
        /// Record dimension the site was configured with.
        dim: u32,
        /// Covariance kind the site encodes synopses with.
        cov: CovarianceType,
        /// `true` when this is a reconnect after a dropped connection:
        /// the site still holds sender state and wants a resync, not a
        /// fresh round.
        resume: bool,
    },
    /// Coordinator → site: rendezvous accepted.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`].
        version: u16,
        /// How often the site should ping, microseconds.
        heartbeat_us: u64,
        /// Silence after which the coordinator evicts, microseconds.
        timeout_us: u64,
        /// Cumulative ACK of the coordinator's inbox for this site; a
        /// resuming site trims its retransmit queue to this before
        /// re-sending anything.
        ack: u64,
    },
    /// Coordinator → site: rendezvous refused; the connection closes.
    Reject {
        /// Which parameter disagreed.
        code: RejectCode,
        /// The coordinator's value.
        expect: u64,
        /// The site's offending value.
        got: u64,
    },
    /// Coordinator → sites: every site joined; start streaming.
    Start,
    /// Site → coordinator: liveness heartbeat.
    Ping {
        /// The pinging site.
        site: u32,
        /// The site's local clock at send time, microseconds; echoed back
        /// in [`Control::Pong`] so the site measures its heartbeat RTT.
        sent_us: u64,
    },
    /// Site → coordinator: stream exhausted and every frame acknowledged.
    Done {
        /// The finished site.
        site: u32,
    },
    /// Coordinator → sites: the round is over; disconnect.
    Stop,
    /// Site → coordinator: a telemetry delta (encoded
    /// `cludistream_obs::TelemetryDelta` bytes), piggybacked on the
    /// heartbeat cadence.
    Telemetry {
        /// Originating site.
        site: u32,
        /// The encoded delta.
        payload: Vec<u8>,
    },
    /// Coordinator → site: answer to a [`Control::Ping`].
    Pong {
        /// The site being answered.
        site: u32,
        /// The `sent_us` from the ping, echoed verbatim.
        echo_us: u64,
    },
    /// Coordinator → site: clock-offset probe sent right after `Welcome`.
    ClockProbe {
        /// Coordinator clock at probe send, microseconds.
        t0_us: u64,
    },
    /// Site → coordinator: answer to a [`Control::ClockProbe`]. The
    /// coordinator receives this at `t1` and estimates the site's offset
    /// Cristian-style: `offset = (t0 + t1) / 2 − site_us`.
    ClockEcho {
        /// The echoing site.
        site: u32,
        /// The probe's `t0_us`, echoed verbatim.
        t0_us: u64,
        /// The site's local clock when it echoed, microseconds.
        site_us: u64,
    },
    /// Scraper → coordinator: request the fleet registry (any connection
    /// on the listener may send this; no handshake required).
    StatusRequest,
    /// Coordinator → scraper: the fleet registry rendered in Prometheus
    /// text exposition format, UTF-8.
    StatusReply {
        /// The exposition text bytes.
        text: Vec<u8>,
    },
    /// Reader → coordinator: request the latest published model snapshot
    /// (any connection on the listener may send this; no handshake
    /// required — the serving analogue of [`Control::StatusRequest`]).
    SnapshotRequest,
    /// Coordinator → reader: the latest [`crate::serving::ModelSnapshot`]
    /// in its wire encoding, or an empty payload when the coordinator has
    /// not applied any model yet.
    SnapshotReply {
        /// Encoded snapshot bytes (`ModelSnapshot::encode`); empty when
        /// no snapshot is available.
        snapshot: Vec<u8>,
    },
    /// Monitor → coordinator: evaluate the coordinator's alert rules
    /// against the live fleet registry (any connection on the listener
    /// may send this; no handshake required — the alerting analogue of
    /// [`Control::StatusRequest`]).
    HealthRequest,
    /// Coordinator → monitor: every configured rule's evaluated state.
    /// Empty when the coordinator runs without an alert set.
    HealthReply {
        /// One entry per configured rule, in rule order.
        alerts: Vec<HealthAlert>,
    },
}

impl Control {
    /// Encodes the frame.
    pub fn encode(&self) -> ByteBuf {
        let mut buf = ByteBuf::new();
        match self {
            Control::Hello { version, site, dim, cov, resume } => {
                buf.put_u8(TAG_HELLO);
                buf.put_u16_le(*version);
                buf.put_u32_le(*site);
                buf.put_u32_le(*dim);
                buf.put_u8(cov_to_u8(*cov));
                buf.put_u8(u8::from(*resume));
            }
            Control::Welcome { version, heartbeat_us, timeout_us, ack } => {
                buf.put_u8(TAG_WELCOME);
                buf.put_u16_le(*version);
                buf.put_u64_le(*heartbeat_us);
                buf.put_u64_le(*timeout_us);
                buf.put_u64_le(*ack);
            }
            Control::Reject { code, expect, got } => {
                buf.put_u8(TAG_REJECT);
                buf.put_u8(code.to_u8());
                buf.put_u64_le(*expect);
                buf.put_u64_le(*got);
            }
            Control::Start => buf.put_u8(TAG_START),
            Control::Ping { site, sent_us } => {
                buf.put_u8(TAG_PING);
                buf.put_u32_le(*site);
                buf.put_u64_le(*sent_us);
            }
            Control::Done { site } => {
                buf.put_u8(TAG_DONE);
                buf.put_u32_le(*site);
            }
            Control::Stop => buf.put_u8(TAG_STOP),
            Control::Telemetry { site, payload } => {
                buf.put_u8(TAG_TELEMETRY);
                buf.put_u32_le(*site);
                buf.put_var_bytes(payload);
            }
            Control::Pong { site, echo_us } => {
                buf.put_u8(TAG_PONG);
                buf.put_u32_le(*site);
                buf.put_u64_le(*echo_us);
            }
            Control::ClockProbe { t0_us } => {
                buf.put_u8(TAG_CLOCK_PROBE);
                buf.put_u64_le(*t0_us);
            }
            Control::ClockEcho { site, t0_us, site_us } => {
                buf.put_u8(TAG_CLOCK_ECHO);
                buf.put_u32_le(*site);
                buf.put_u64_le(*t0_us);
                buf.put_u64_le(*site_us);
            }
            Control::StatusRequest => buf.put_u8(TAG_STATUS_REQUEST),
            Control::StatusReply { text } => {
                buf.put_u8(TAG_STATUS_REPLY);
                buf.put_var_bytes(text);
            }
            Control::SnapshotRequest => buf.put_u8(TAG_SNAPSHOT_REQUEST),
            Control::SnapshotReply { snapshot } => {
                buf.put_u8(TAG_SNAPSHOT_REPLY);
                buf.put_var_bytes(snapshot);
            }
            Control::HealthRequest => buf.put_u8(TAG_HEALTH_REQUEST),
            Control::HealthReply { alerts } => {
                buf.put_u8(TAG_HEALTH_REPLY);
                buf.put_u32_le(alerts.len() as u32);
                for a in alerts {
                    buf.put_var_bytes(a.name.as_bytes());
                    buf.put_var_bytes(a.metric.as_bytes());
                    buf.put_u8(u8::from(a.firing));
                    buf.put_u64_le(a.value.to_bits());
                    buf.put_u64_le(a.threshold.to_bits());
                }
            }
        }
        buf
    }

    /// Decodes one control frame; input that ends early (or a string that
    /// is not UTF-8) is "truncated control frame".
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Control, CludiError> {
        Control::read(r).map_err(|e| e.named(CludiError::Decode("truncated control frame")))
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Control, Malformed<CludiError>> {
        Ok(match r.get_u8()? {
            TAG_HELLO => Control::Hello {
                version: r.get_u16_le()?,
                site: r.get_u32_le()?,
                dim: r.get_u32_le()?,
                cov: cov_from_u8(r.get_u8()?)?,
                resume: r.get_u8()? != 0,
            },
            TAG_WELCOME => Control::Welcome {
                version: r.get_u16_le()?,
                heartbeat_us: r.get_u64_le()?,
                timeout_us: r.get_u64_le()?,
                ack: r.get_u64_le()?,
            },
            TAG_REJECT => Control::Reject {
                code: RejectCode::from_u8(r.get_u8()?)?,
                expect: r.get_u64_le()?,
                got: r.get_u64_le()?,
            },
            TAG_START => Control::Start,
            TAG_PING => Control::Ping { site: r.get_u32_le()?, sent_us: r.get_u64_le()? },
            TAG_DONE => Control::Done { site: r.get_u32_le()? },
            TAG_STOP => Control::Stop,
            TAG_TELEMETRY => {
                Control::Telemetry { site: r.get_u32_le()?, payload: r.get_var_bytes()? }
            }
            TAG_PONG => Control::Pong { site: r.get_u32_le()?, echo_us: r.get_u64_le()? },
            TAG_CLOCK_PROBE => Control::ClockProbe { t0_us: r.get_u64_le()? },
            TAG_CLOCK_ECHO => Control::ClockEcho {
                site: r.get_u32_le()?,
                t0_us: r.get_u64_le()?,
                site_us: r.get_u64_le()?,
            },
            TAG_STATUS_REQUEST => Control::StatusRequest,
            TAG_STATUS_REPLY => Control::StatusReply { text: r.get_var_bytes()? },
            TAG_SNAPSHOT_REQUEST => Control::SnapshotRequest,
            TAG_SNAPSHOT_REPLY => Control::SnapshotReply { snapshot: r.get_var_bytes()? },
            TAG_HEALTH_REQUEST => Control::HealthRequest,
            TAG_HEALTH_REPLY => {
                let count = r.get_u32_le()? as usize;
                // Two empty strings and the flag, value and threshold.
                let alerts = r.items(count, 4 + 4 + 17, |r| {
                    Ok(HealthAlert {
                        name: r.get_var_str()?,
                        metric: r.get_var_str()?,
                        firing: r.get_u8()? != 0,
                        value: f64::from_bits(r.get_u64_le()?),
                        threshold: f64::from_bits(r.get_u64_le()?),
                    })
                })?;
                Control::HealthReply { alerts }
            }
            _ => return Err(CludiError::Decode("unknown control tag").into()),
        })
    }

    /// `true` when a payload's first byte marks a control frame rather
    /// than a data-plane [`crate::protocol::Frame`].
    pub fn is_control(payload: &[u8]) -> bool {
        payload.first().is_some_and(|&b| b >= CONTROL_TAG_MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Control) {
        let bytes = frame.encode();
        assert!(Control::is_control(bytes.as_slice()), "{frame:?} must classify as control");
        let decoded = Control::decode(&mut bytes.reader()).expect("decode");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_control_frame_roundtrips() {
        roundtrip(Control::Hello {
            version: PROTOCOL_VERSION,
            site: 7,
            dim: 3,
            cov: CovarianceType::Diagonal,
            resume: true,
        });
        roundtrip(Control::Welcome {
            version: PROTOCOL_VERSION,
            heartbeat_us: 500_000,
            timeout_us: 5_000_000,
            ack: 42,
        });
        roundtrip(Control::Reject { code: RejectCode::Dimension, expect: 3, got: 5 });
        roundtrip(Control::Start);
        roundtrip(Control::Ping { site: 2, sent_us: 123_456 });
        roundtrip(Control::Done { site: 1 });
        roundtrip(Control::Stop);
        roundtrip(Control::Telemetry { site: 3, payload: vec![1, 2, 3, 0xFF] });
        roundtrip(Control::Telemetry { site: 0, payload: Vec::new() });
        roundtrip(Control::Pong { site: 2, echo_us: 123_456 });
        roundtrip(Control::ClockProbe { t0_us: 9_999 });
        roundtrip(Control::ClockEcho { site: 1, t0_us: 9_999, site_us: 77 });
        roundtrip(Control::StatusRequest);
        roundtrip(Control::StatusReply { text: b"cludistream_up 1\n".to_vec() });
        roundtrip(Control::SnapshotRequest);
        roundtrip(Control::SnapshotReply { snapshot: vec![0xCA, 0xFE, 0x00] });
        roundtrip(Control::SnapshotReply { snapshot: Vec::new() });
        roundtrip(Control::HealthRequest);
        roundtrip(Control::HealthReply { alerts: Vec::new() });
        roundtrip(Control::HealthReply {
            alerts: vec![
                HealthAlert {
                    name: "round-stalled".into(),
                    metric: "coord.round_started".into(),
                    firing: true,
                    value: 0.0,
                    threshold: 1.0,
                },
                HealthAlert {
                    name: "heartbeat-p99".into(),
                    metric: "hb.rtt_us".into(),
                    firing: false,
                    value: 812.5,
                    threshold: 1_000_000.0,
                },
            ],
        });
    }

    /// NaN marks an absent series in a `HealthAlert` value; it cannot go
    /// through `roundtrip`'s `assert_eq!` (NaN != NaN), so check the bit
    /// pattern survives explicitly.
    #[test]
    fn health_alert_nan_value_roundtrips_bitwise() {
        let frame = Control::HealthReply {
            alerts: vec![HealthAlert {
                name: "snapshot-stale".into(),
                metric: "serve.staleness_rounds".into(),
                firing: true,
                value: f64::NAN,
                threshold: 4.0,
            }],
        };
        let bytes = frame.encode();
        let decoded = Control::decode(&mut bytes.reader()).expect("decode");
        let Control::HealthReply { alerts } = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].firing);
        assert_eq!(alerts[0].value.to_bits(), f64::NAN.to_bits());
        assert_eq!(alerts[0].threshold, 4.0);
    }

    #[test]
    fn data_plane_frames_are_not_control() {
        use crate::protocol::{Frame, Message};
        use crate::remote::ModelId;
        // A Delete message is the smallest data-plane frame to build.
        let frame = Frame::Bare(Message::Delete { site: 0, model: ModelId(1), count_delta: 2 });
        let bytes = frame.encode(CovarianceType::Full);
        assert!(!Control::is_control(bytes.as_slice()));
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        for frame in [
            Control::Hello {
                version: 1,
                site: 0,
                dim: 1,
                cov: CovarianceType::Full,
                resume: false,
            },
            Control::Welcome { version: 1, heartbeat_us: 1, timeout_us: 2, ack: 3 },
            Control::Reject { code: RejectCode::Version, expect: 1, got: 2 },
            Control::Ping { site: 0, sent_us: 5 },
            Control::Telemetry { site: 0, payload: vec![9, 9] },
            Control::Pong { site: 0, echo_us: 5 },
            Control::ClockProbe { t0_us: 1 },
            Control::ClockEcho { site: 0, t0_us: 1, site_us: 2 },
            Control::StatusReply { text: b"x".to_vec() },
            Control::SnapshotReply { snapshot: b"y".to_vec() },
            Control::HealthReply {
                alerts: vec![HealthAlert {
                    name: "r".into(),
                    metric: "m".into(),
                    firing: false,
                    value: 1.0,
                    threshold: 2.0,
                }],
            },
        ] {
            let bytes = frame.encode();
            let short = bytes.slice(..bytes.len() - 1);
            assert!(Control::decode(&mut short.reader()).is_err(), "{frame:?}");
        }
        assert!(Control::decode(&mut ByteReader::new(&[])).is_err());
        assert!(Control::decode(&mut ByteReader::new(&[200])).is_err());
    }
}
