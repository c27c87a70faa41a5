//! Model-quality plane: streaming drift detectors and declarative
//! alert rules over the metrics registry.
//!
//! The rest of this crate measures *effort* (counters, latencies,
//! spans); this module watches *fitness*. Sites feed their per-chunk
//! held-out average log likelihood into two classic zero-state-per-item
//! change detectors — [`PageHinkley`] for a sustained drop in the mean,
//! [`EwmaDetector`] for an exponentially-weighted control chart — and
//! emit the detector statistics as gauges alongside the raw quality
//! series (test statistics, weight entropy, re-cluster EWMA, synopsis
//! bytes per record). Coordinator-side, an [`AlertSet`] of declarative
//! [`AlertRule`]s turns those series into a binary "is the model
//! healthy?" answer served over the socket runtime's health endpoint.
//!
//! Both detectors keep their running mean as an explicit `(sum, count)`
//! pair and fold samples left-to-right, so a brute-force oracle that
//! recomputes every prefix from scratch with the same expressions
//! reproduces the detector state *bit for bit* — which is exactly how
//! the property tests in `tests/quality_props.rs` check them.

use crate::catalogue;
use crate::Registry;

/// Page-Hinkley slack `δ` of the deployed site detector: per-sample
/// tolerance subtracted from the deviation so noise around a stationary
/// mean never accumulates.
const PH_DELTA: f64 = 0.05;
/// Page-Hinkley alarm threshold `λ` of the deployed site detector: the
/// cumulative downward excursion (in log-likelihood nats) that signals
/// drift.
const PH_LAMBDA: f64 = 5.0;
/// EWMA smoothing factor `λ ∈ (0, 1]` of the deployed chart: weight of
/// the newest sample in the exponentially-weighted estimate.
const EWMA_LAMBDA: f64 = 0.2;
/// EWMA control-limit width `L` in asymptotic standard deviations. L=3
/// is the textbook chart width but its in-control run length (~500
/// samples) is too short for per-chunk series; L=4 pushes false alarms
/// out by orders of magnitude while still flagging a multi-sigma drop
/// within a few chunks.
const EWMA_L: f64 = 4.0;
/// Samples the deployed EWMA chart observes before it may alarm (the
/// mean and deviation estimates need a burn-in).
const EWMA_WARMUP: u64 = 8;
/// Smoothing factor of a site's re-cluster-rate EWMA gauge
/// (`quality.recluster_ewma`).
pub const CHURN_ALPHA: f64 = 0.2;

/// Page-Hinkley test for a sustained *drop* in the stream mean.
///
/// After `t` samples with running mean `x̄_t = (Σ x_i) / t`, it tracks
/// the cumulative signed deviation `m_t = Σ_{i≤t} (x_i − x̄_i + δ)` and
/// its running peak `M_t = max_{i≤t} m_i`. The excursion `M_t − m_t`
/// grows only while samples run *below* the historical mean by more
/// than the slack `δ`; when it exceeds `λ` the detector alarms and
/// resets. Watching average log likelihood, an alarm means the model
/// has been fitting the stream consistently worse — concept drift.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    sum: f64,
    count: u64,
    cum: f64,
    peak: f64,
}

impl PageHinkley {
    /// A fresh detector with slack `delta` and alarm threshold `lambda`.
    pub fn new(delta: f64, lambda: f64) -> PageHinkley {
        PageHinkley { delta, lambda, sum: 0.0, count: 0, cum: 0.0, peak: 0.0 }
    }

    /// Feeds one sample; returns `true` when the drop excursion crosses
    /// `λ` (the detector resets itself so the next drift is detectable).
    pub fn update(&mut self, x: f64) -> bool {
        self.count += 1;
        self.sum += x;
        let mean = self.sum / self.count as f64;
        self.cum += x - mean + self.delta;
        if self.cum > self.peak {
            self.peak = self.cum;
        }
        if self.peak - self.cum > self.lambda {
            self.reset();
            return true;
        }
        false
    }

    /// The current drop excursion `M_t − m_t`; alarms when it exceeds
    /// `λ`. Zero right after a reset.
    pub fn stat(&self) -> f64 {
        self.peak - self.cum
    }

    /// Samples folded in since the last reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forgets all state, as after an alarm.
    pub(crate) fn reset(&mut self) {
        self.sum = 0.0;
        self.count = 0;
        self.cum = 0.0;
        self.peak = 0.0;
    }
}

impl Default for PageHinkley {
    /// The detector every quality-plane site runs.
    fn default() -> Self {
        PageHinkley::new(PH_DELTA, PH_LAMBDA)
    }
}

/// EWMA control chart for a shift (either direction) in the stream mean.
///
/// Keeps the exponentially-weighted estimate
/// `z_t = (1 − λ)·z_{t−1} + λ·x_t` (seeded with the first sample) next
/// to the plain running mean `x̄_t` and variance (from running sum and
/// sum of squares). The chart half-width after `t` samples is
/// `L·σ_t·sqrt(λ/(2−λ)·(1 − (1−λ)^{2t}))` — the exact EWMA standard
/// deviation, including the startup correction. [`EwmaDetector::stat`]
/// is `|z_t − x̄_t|` normalized by that width, so ≥ 1 means out of
/// control; the detector alarms (after warmup) and resets there.
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    lambda: f64,
    l: f64,
    warmup: u64,
    sum: f64,
    sumsq: f64,
    count: u64,
    z: f64,
    score: f64,
}

impl EwmaDetector {
    /// A fresh chart with smoothing `lambda`, width `l` and `warmup`
    /// samples of burn-in before alarms are allowed.
    pub fn new(lambda: f64, l: f64, warmup: u64) -> EwmaDetector {
        EwmaDetector { lambda, l, warmup, sum: 0.0, sumsq: 0.0, count: 0, z: 0.0, score: 0.0 }
    }

    /// Feeds one sample; returns `true` when the chart signals a mean
    /// shift (the detector resets itself).
    pub fn update(&mut self, x: f64) -> bool {
        self.count += 1;
        self.sum += x;
        self.sumsq += x * x;
        if self.count == 1 {
            self.z = x;
        } else {
            self.z = (1.0 - self.lambda) * self.z + self.lambda * x;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        let var = (self.sumsq / n - mean * mean).max(0.0);
        let sd = var.sqrt();
        let width = (self.lambda / (2.0 - self.lambda)
            * (1.0 - (1.0 - self.lambda).powf(2.0 * n)))
        .sqrt();
        self.score = if sd > 0.0 { (self.z - mean).abs() / (self.l * sd * width) } else { 0.0 };
        if self.count > self.warmup && self.score > 1.0 {
            self.reset();
            return true;
        }
        false
    }

    /// The normalized chart statistic: `|z − x̄| / (L·σ·width)`. Values
    /// at or above 1 are out of control; zero right after a reset.
    pub fn stat(&self) -> f64 {
        self.score
    }

    /// Samples folded in since the last reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forgets all state, as after an alarm.
    pub(crate) fn reset(&mut self) {
        self.sum = 0.0;
        self.sumsq = 0.0;
        self.count = 0;
        self.z = 0.0;
        self.score = 0.0;
    }
}

impl Default for EwmaDetector {
    /// The chart every quality-plane site runs.
    fn default() -> Self {
        EwmaDetector::new(EWMA_LAMBDA, EWMA_L, EWMA_WARMUP)
    }
}

/// The predicate half of an [`AlertRule`]: which registry series kind
/// it reads and the threshold it compares against.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// Fires while the gauge is *below* the threshold — and while the
    /// gauge has never been set, since the condition it certifies
    /// (e.g. "the round started") has then not been established.
    GaugeBelow {
        /// The gauge must be at or above this to stay healthy.
        threshold: f64,
    },
    /// Fires while the gauge is *above* the threshold; an absent gauge
    /// does not fire.
    GaugeAbove {
        /// The gauge must be at or below this to stay healthy.
        threshold: f64,
    },
    /// Fires once the counter exceeds the threshold (counters are
    /// monotone, so this latches until the registry is replaced); an
    /// absent counter reads 0.
    CounterAbove {
        /// The counter must be at or below this to stay healthy.
        threshold: u64,
    },
    /// Fires while the tracked exact quantile of an observation series
    /// is above the threshold; an untracked or empty series does not
    /// fire.
    QuantileAbove {
        /// Which quantile to read, in `[0, 1]`.
        q: f64,
        /// The quantile must be at or below this to stay healthy.
        threshold: f64,
    },
}

/// One named health predicate over a metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name, e.g. `"round-stalled"` — also the suffix of
    /// the `alert.<name>` gauge the coordinator exports.
    pub name: String,
    /// Registry series the predicate reads (fleet-registry names, so
    /// counters/observations may use the plain summed name while gauges
    /// are per-site or coordinator-owned).
    pub metric: String,
    /// The predicate.
    pub kind: AlertKind,
}

/// The evaluated state of one rule at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertState {
    /// The rule's name.
    pub name: String,
    /// The series it read.
    pub metric: String,
    /// Whether the predicate currently holds (the alert is firing).
    pub firing: bool,
    /// The value read from the registry; NaN when the series is absent.
    pub value: f64,
    /// The rule's threshold, for display.
    pub threshold: f64,
}

/// A declarative set of [`AlertRule`]s evaluated together against one
/// registry — the coordinator's model-health contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertSet {
    rules: Vec<AlertRule>,
}

impl AlertSet {
    /// A set over the given rules.
    pub(crate) fn new(rules: Vec<AlertRule>) -> AlertSet {
        AlertSet { rules }
    }

    /// The conservative default contract for a socket round:
    ///
    /// - `round-stalled`: the `coord.round_started` gauge is below 1 —
    ///   the fleet never rendezvoused (or the gauge was never set).
    /// - `snapshot-stale`: the `serve.staleness_rounds` gauge is above
    ///   4 — the published serving snapshot is falling behind the
    ///   coordinator's applied messages.
    /// - `heartbeat-p99`: the fleet-wide `hb.rtt_us` p99 exceeds one
    ///   second — heartbeats are barely beating the eviction timeout.
    ///
    /// Drift rules (`CounterAbove` on `quality.ph_drift` /
    /// `quality.ewma_drift`) are deliberately not in the default set:
    /// drift counters latch, so whether a past drift should keep a
    /// deployment unhealthy is an operator policy, not a default.
    pub fn default_rules() -> AlertSet {
        AlertSet::new(vec![
            AlertRule {
                name: "round-stalled".into(),
                metric: catalogue::COORD_ROUND_STARTED.as_str().into(),
                kind: AlertKind::GaugeBelow { threshold: 1.0 },
            },
            AlertRule {
                name: "snapshot-stale".into(),
                metric: catalogue::SERVE_STALENESS_ROUNDS.as_str().into(),
                kind: AlertKind::GaugeAbove { threshold: 4.0 },
            },
            AlertRule {
                name: "heartbeat-p99".into(),
                metric: catalogue::HB_RTT_US.as_str().into(),
                kind: AlertKind::QuantileAbove { q: 0.99, threshold: 1_000_000.0 },
            },
        ])
    }

    /// Appends one rule.
    pub fn push(&mut self, rule: AlertRule) {
        self.rules.push(rule);
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Evaluates every rule against `registry`, in order.
    pub(crate) fn evaluate(&self, registry: &Registry) -> Vec<AlertState> {
        self.rules
            .iter()
            .map(|rule| {
                let (firing, value, threshold) = match &rule.kind {
                    AlertKind::GaugeBelow { threshold } => match registry.gauge_value(&rule.metric)
                    {
                        Some(v) => (v < *threshold, v, *threshold),
                        None => (true, f64::NAN, *threshold),
                    },
                    AlertKind::GaugeAbove { threshold } => match registry.gauge_value(&rule.metric)
                    {
                        Some(v) => (v > *threshold, v, *threshold),
                        None => (false, f64::NAN, *threshold),
                    },
                    AlertKind::CounterAbove { threshold } => {
                        let v = registry.counter_value(&rule.metric);
                        (v > *threshold, v as f64, *threshold as f64)
                    }
                    AlertKind::QuantileAbove { q, threshold } => {
                        match registry.exact_quantile(&rule.metric, *q) {
                            Some(v) => (v as f64 > *threshold, v as f64, *threshold),
                            None => (false, f64::NAN, *threshold),
                        }
                    }
                };
                AlertState {
                    name: rule.name.clone(),
                    metric: rule.metric.clone(),
                    firing,
                    value,
                    threshold,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{lookup, Counter, Gauge, Histogram};
    use crate::catalogue::{COORD_ROUND_STARTED, QUALITY_PH_DRIFT, SERVE_STALENESS_ROUNDS};
    use crate::Recorder;

    #[test]
    fn page_hinkley_detects_a_mean_drop_and_not_stationarity() {
        let mut ph = PageHinkley::new(0.05, 2.0);
        // Stationary: alternating around -1.5 never accumulates.
        for i in 0..200 {
            let x = -1.5 + if i % 2 == 0 { 0.1 } else { -0.1 };
            assert!(!ph.update(x), "stationary sample {i} alarmed");
        }
        assert!(ph.stat() < 2.0);
        // Drop by 1 nat: the excursion grows ~ (1 - δ) per sample.
        let mut fired = false;
        for _ in 0..20 {
            if ph.update(-2.5) {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained drop never alarmed");
        assert_eq!(ph.count(), 0, "alarm resets the detector");
    }

    #[test]
    fn ewma_detects_a_shift_after_warmup_only() {
        let mut ew = EwmaDetector::new(0.2, 3.0, 8);
        // A deterministic two-level burn-in gives a nonzero variance.
        for i in 0..40 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            assert!(!ew.update(x), "stationary sample {i} alarmed");
        }
        let mut fired = false;
        for _ in 0..20 {
            if ew.update(8.0) {
                fired = true;
                break;
            }
        }
        assert!(fired, "level shift never alarmed");
        assert_eq!(ew.count(), 0, "alarm resets the detector");
    }

    #[test]
    fn ewma_respects_warmup() {
        // A huge first-shift within warmup must not alarm.
        let mut ew = EwmaDetector::new(0.2, 3.0, 10);
        for i in 0..5 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            ew.update(x);
        }
        assert!(!ew.update(100.0), "alarm inside the warmup window");
    }

    #[test]
    fn alert_rules_read_gauges_counters_and_quantiles() {
        let registry = Registry::new();
        registry.track_quantiles(Histogram("lat.us"));
        let mut set = AlertSet::default_rules();
        set.push(AlertRule {
            name: "drift".into(),
            metric: "quality.ph_drift".into(),
            kind: AlertKind::CounterAbove { threshold: 0 },
        });
        set.push(AlertRule {
            name: "slow".into(),
            metric: "lat.us".into(),
            kind: AlertKind::QuantileAbove { q: 0.5, threshold: 10.0 },
        });
        assert_eq!(set.rules.len(), 5);

        // Nothing recorded: round-stalled fires on the *absent* gauge,
        // everything else is quiet.
        let states = set.evaluate(&registry);
        assert!(states[0].firing && states[0].value.is_nan(), "{states:?}");
        assert!(!states[1].firing && !states[2].firing, "{states:?}");
        assert!(!states[3].firing, "counter at 0 is healthy");
        assert!(!states[4].firing, "empty sketch is healthy");

        registry.gauge(COORD_ROUND_STARTED, 1.0);
        registry.gauge(SERVE_STALENESS_ROUNDS, 9.0);
        registry.counter(QUALITY_PH_DRIFT, 2);
        registry.observe(Histogram("lat.us"), 50);
        let states = set.evaluate(&registry);
        assert!(!states[0].firing, "round started");
        assert!(states[1].firing && states[1].value == 9.0, "stale snapshot");
        assert!(states[3].firing && states[3].value == 2.0, "latched drift");
        assert!(states[4].firing && states[4].value == 50.0, "slow median");
    }

    /// A rule names its series as a string, so a renamed or retyped series
    /// would leave it silently reading NaN (or 0): each default rule must
    /// read a catalogue entry of the kind its predicate reads.
    #[test]
    fn default_rules_read_declared_series_of_their_kind() {
        for rule in AlertSet::default_rules().rules() {
            let want = match rule.kind {
                AlertKind::GaugeBelow { .. } | AlertKind::GaugeAbove { .. } => Gauge::KIND,
                AlertKind::CounterAbove { .. } => Counter::KIND,
                AlertKind::QuantileAbove { .. } => Histogram::KIND,
            };
            let entry = lookup(&rule.metric)
                .unwrap_or_else(|| panic!("rule {} reads undeclared {}", rule.name, rule.metric));
            assert_eq!(entry.kind, want, "rule {} reads {} as a {want}", rule.name, rule.metric);
        }
    }
}
