//! Fleet-wide telemetry aggregation for the socket runtime.
//!
//! The coordinator folds each site's [`TelemetryDelta`] into one
//! [`FleetAggregator`]: every metric lands twice, once under its per-site
//! name (`site3.em.iters_per_fit`) and once under its plain name, so the plain
//! entry is *structurally* the sum over sites — the fleet-equivalence
//! test in `crates/cli/tests` checks exactly that identity. Histogram
//! observations are re-inserted value by value, which keeps both the log2
//! histograms and the Greenwald–Khanna sketches exact (GK has no merge
//! operation, so shipping raw values is the only way the fleet quantiles
//! stay within the sketch's rank-error bound).
//!
//! Span records arrive on each site's local clock; [`FleetAggregator`]
//! rebases them onto the coordinator clock using the Cristian-style
//! offset estimated during the rendezvous handshake
//! ([`FleetAggregator::set_offset`]), so
//! [`crate::perfetto_json`] over [`FleetAggregator::spans`] yields one
//! coherent multi-process timeline.
//!
//! [`prometheus_text`] renders any [`Registry`] in the Prometheus text
//! exposition format (version 0.0.4): `site<N>.` name prefixes become
//! `{site="N"}` labels, counters get the `_total` suffix, histograms
//! render as summaries with exact GK quantiles where tracked. Output is
//! byte-deterministic for a given registry state (BTreeMap iteration
//! order everywhere).

use crate::catalogue::{self, Counter, Gauge, Histogram};
use crate::quality::{AlertSet, AlertState};
use crate::registry::{lock, Registry};
use crate::telemetry::TelemetryDelta;
use crate::trace::SpanRecord;
use crate::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// The `&'static str` equal to `name`, leaked once per distinct string.
/// Only the `site<N>.` and `alert.<rule>` rules call it, on local values,
/// so the keys stay bounded by children × entries plus rules.
fn intern(name: String) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = lock(POOL.get_or_init(Mutex::default));
    if let Some(&existing) = pool.get(name.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Child `site`'s copy of a declared `name`: `site<N>.<name>`.
fn site_name(site: u32, name: &str) -> &'static str {
    intern(format!("site{site}.{name}"))
}

/// The coordinator's fold target for site telemetry deltas.
///
/// Owns its own [`Registry`] — separate from the coordinator's journal
/// registry — so fleet metrics are purely site-originated and never mix
/// with the coordinator's local instrumentation.
#[derive(Default)]
pub struct FleetAggregator {
    registry: Arc<Registry>,
    inner: Mutex<FleetInner>,
}

#[derive(Debug, Default)]
struct FleetInner {
    /// Per-site clock offset, microseconds: `site clock + offset =`
    /// coordinator clock.
    offsets: BTreeMap<u32, i64>,
    /// Rebased span records, in arrival order.
    spans: Vec<SpanRecord>,
}

impl std::fmt::Debug for FleetAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetAggregator").field("registry", &self.registry).finish()
    }
}

impl FleetAggregator {
    /// An empty aggregator with a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry fleet metrics accumulate into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records `site`'s clock offset (coordinator µs − site µs), from the
    /// handshake's Cristian-style probe. Must be set before the site's
    /// first delta for its spans to land on the coordinator timeline.
    pub fn set_offset(&self, site: u32, offset_us: i64) {
        lock(&self.inner).offsets.insert(site, offset_us);
    }

    /// The stored offset for `site` (0 when no probe completed).
    pub fn offset(&self, site: u32) -> i64 {
        lock(&self.inner).offsets.get(&site).copied().unwrap_or(0)
    }

    /// Folds one delta into the fleet registry: counters and observations
    /// land under both `site<N>.<name>` and the plain `<name>` (so plain
    /// names sum over sites), gauges under the per-site name only (a sum
    /// of gauges is rarely meaningful), names the decoder skipped add to
    /// `obs.unknown_series`, and spans are rebased onto the coordinator
    /// clock via the site's stored offset. `delta.site` must be a
    /// validated child index: the caller stamps it from the connection
    /// the delta arrived on.
    pub fn apply(&self, delta: &TelemetryDelta) {
        let site = delta.site;
        for &(counter, value) in &delta.counters {
            self.registry.counter(Counter(site_name(site, counter.as_str())), value);
            self.registry.counter(counter, value);
        }
        for &(gauge, value) in &delta.gauges {
            self.set_site_gauge(site, gauge, value);
        }
        for (histogram, values) in &delta.observations {
            let per_site = Histogram(site_name(site, histogram.as_str()));
            self.registry.track_quantiles(per_site);
            self.registry.track_quantiles(*histogram);
            for &v in values {
                self.registry.observe(per_site, v);
                self.registry.observe(*histogram, v);
            }
        }
        if delta.unknown > 0 {
            self.registry.counter(catalogue::OBS_UNKNOWN_SERIES, delta.unknown);
        }
        if !delta.spans.is_empty() {
            let mut inner = lock(&self.inner);
            let offset = inner.offsets.get(&site).copied().unwrap_or(0);
            let rebase = |us: u64| (us as i64).saturating_add(offset).max(0) as u64;
            for span in &delta.spans {
                inner.spans.push(SpanRecord {
                    start_us: rebase(span.start_us),
                    end_us: rebase(span.end_us),
                    ..*span
                });
            }
        }
    }

    /// Sets child `site`'s copy of `gauge` (`site<N>.<name>`), as a folded
    /// delta does and as a parent's liveness gauges are kept. `site` must
    /// be a validated child index.
    pub fn set_site_gauge(&self, site: u32, gauge: Gauge, value: f64) {
        self.registry.gauge(Gauge(site_name(site, gauge.as_str())), value);
    }

    /// Evaluates `alerts` against the fleet registry and mirrors each
    /// verdict into it as an `alert.<rule>` 0/1 gauge, so a status scrape
    /// tells the same story as the reply.
    pub fn evaluate_alerts(&self, alerts: &AlertSet) -> Vec<AlertState> {
        let states = alerts.evaluate(&self.registry);
        for a in &states {
            let value = if a.firing { 1.0 } else { 0.0 };
            self.registry.gauge(Gauge(intern(format!("alert.{}", a.name))), value);
        }
        states
    }

    /// All rebased span records collected so far (coordinator clock).
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.inner).spans.clone()
    }

    /// Renders the fleet registry in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.registry)
    }
}

/// Mangles a metric name into the Prometheus name charset
/// (`[a-zA-Z0-9_]`) under the `cludistream_` namespace.
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 12);
    out.push_str("cludistream_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Splits a registry name into `(family, site label)`: a `site<digits>.`
/// prefix becomes `Some(digits)`, anything else is an unlabelled fleet
/// total.
fn split_site(name: &str) -> (&str, Option<&str>) {
    if let Some(rest) = name.strip_prefix("site") {
        if let Some(dot) = rest.find('.') {
            let (digits, tail) = rest.split_at(dot);
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                return (&tail[1..], Some(digits));
            }
        }
    }
    (name, None)
}

/// Formats one `name{labels} value` line. The site label is omitted for
/// fleet totals; `extra` carries e.g. a `quantile` label.
fn sample_line(
    out: &mut String,
    family: &str,
    suffix: &str,
    site: Option<&str>,
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(family);
    out.push_str(suffix);
    let mut labels = Vec::new();
    if let Some(s) = site {
        labels.push(format!("site=\"{}\"", escape_label(s)));
    }
    if let Some((k, v)) = extra {
        labels.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if !labels.is_empty() {
        out.push('{');
        out.push_str(&labels.join(","));
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Formats an f64 the exposition way: integral values without a trailing
/// `.0`, non-finite values as `NaN`/`+Inf`/`-Inf`.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_owned()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Groups name-sorted `(name, value)` rows into
/// `family → [(site label, value)]`, preserving order within a family.
fn group_by_family<T>(rows: Vec<(&'static str, T)>) -> BTreeMap<String, Vec<(Option<String>, T)>> {
    let mut families: BTreeMap<String, Vec<(Option<String>, T)>> = BTreeMap::new();
    for (name, value) in rows {
        let (family, site) = split_site(name);
        families
            .entry(mangle(family))
            .or_default()
            .push((site.map(str::to_owned), value));
    }
    for samples in families.values_mut() {
        samples.sort_by(|a, b| a.0.cmp(&b.0));
    }
    families
}

/// Renders `registry` in the Prometheus text exposition format:
/// `cludistream_up 1` first, then counters (`_total` suffix), gauges, and
/// histograms as summaries (`_count`/`_sum`, plus exact
/// `{quantile="..."}` samples for series registered with
/// [`Registry::track_quantiles`]). Byte-deterministic for a given
/// registry state.
pub(crate) fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    out.push_str("# TYPE cludistream_up gauge\ncludistream_up 1\n");

    for (family, samples) in group_by_family(registry.counters()) {
        out.push_str(&format!("# TYPE {family}_total counter\n"));
        for (site, value) in samples {
            sample_line(&mut out, &family, "_total", site.as_deref(), None, &value.to_string());
        }
    }

    for (family, samples) in group_by_family(registry.gauges()) {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (site, value) in samples {
            sample_line(&mut out, &family, "", site.as_deref(), None, &format_f64(value));
        }
    }

    // Exact quantiles per tracked series, keyed by the raw registry name.
    let quantiles: BTreeMap<&str, (u64, u64, u64)> = registry
        .quantile_rows()
        .into_iter()
        .map(|(name, _count, p50, p90, p99, _max)| (name, (p50, p90, p99)))
        .collect();
    let mut summaries: BTreeMap<String, Vec<(Option<String>, &'static str)>> = BTreeMap::new();
    for (name, _snapshot) in registry.histograms() {
        let (family, site) = split_site(name);
        summaries
            .entry(mangle(family))
            .or_default()
            .push((site.map(str::to_owned), name));
    }
    for (family, mut samples) in summaries {
        samples.sort_by(|a, b| a.0.cmp(&b.0));
        out.push_str(&format!("# TYPE {family} summary\n"));
        for (site, name) in samples {
            let site = site.as_deref();
            if let Some(&(p50, p90, p99)) = quantiles.get(name) {
                for (q, v) in [("0.5", p50), ("0.9", p90), ("0.99", p99)] {
                    sample_line(&mut out, &family, "", site, Some(("quantile", q)), &v.to_string());
                }
            }
            let snapshot = match registry.histogram_snapshot(name) {
                Some(s) => s,
                None => continue,
            };
            sample_line(&mut out, &family, "_count", site, None, &snapshot.count.to_string());
            sample_line(&mut out, &family, "_sum", site, None, &snapshot.sum.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{
        COORD_GROUPS, COORD_ROUND_STARTED, COORD_TELEMETRY_DECODE_ERR, EM_ITERS_PER_FIT,
        HB_RTT_US, NET_BYTES, QUALITY_AVG_LL, QUALITY_EWMA_DRIFT, QUALITY_PH_DRIFT,
        QUALITY_PH_STAT, QUALITY_RECLUSTER_EWMA, QUALITY_WEIGHT_MIN, ROUND_STATE, SERVE_SCORE_US,
        SERVE_STALENESS_ROUNDS, SITE_CHUNK,
    };
    use crate::quality::{AlertKind, AlertRule};
    use crate::trace::{SpanId, TraceId};

    fn delta(site: u32) -> TelemetryDelta {
        TelemetryDelta {
            site,
            local_now_us: 1000,
            counters: vec![(NET_BYTES, 100 * (site as u64 + 1))],
            gauges: vec![(COORD_GROUPS, site as f64)],
            observations: vec![(EM_ITERS_PER_FIT, vec![10 * (site as u64 + 1)])],
            spans: Vec::new(),
            flight: Vec::new(),
            unknown: 0,
        }
    }

    #[test]
    fn plain_names_sum_over_sites() {
        let fleet = FleetAggregator::new();
        fleet.apply(&delta(0));
        fleet.apply(&delta(1));
        fleet.apply(&delta(1));
        let r = fleet.registry();
        assert_eq!(r.counter_value("site0.net.bytes"), 100);
        assert_eq!(r.counter_value("site1.net.bytes"), 400);
        assert_eq!(r.counter_value("net.bytes"), 500);
        // Gauges stay per-site.
        assert_eq!(r.gauge_value("site1.coord.groups"), Some(1.0));
        assert_eq!(r.gauge_value("coord.groups"), None);
        // Observations feed both histograms and exact sketches.
        assert_eq!(r.histogram_snapshot("em.iters_per_fit").unwrap().count, 3);
        assert_eq!(r.histogram_snapshot("site1.em.iters_per_fit").unwrap().count, 2);
        assert_eq!(r.exact_quantile("em.iters_per_fit", 1.0), Some(20));
    }

    #[test]
    fn spans_are_rebased_with_the_site_offset() {
        let fleet = FleetAggregator::new();
        fleet.set_offset(2, 1_000_000);
        fleet.set_offset(3, -50);
        assert_eq!(fleet.offset(2), 1_000_000);
        let span = |site: u32, start: u64, end: u64| SpanRecord {
            trace: TraceId::new(site, 0),
            span: SpanId::new(site, 1),
            parent: None,
            name: SITE_CHUNK,
            node: site,
            start_us: start,
            end_us: end,
            cost_us: 0,
        };
        let mut d2 = TelemetryDelta { site: 2, ..TelemetryDelta::default() };
        d2.spans.push(span(2, 100, 200));
        fleet.apply(&d2);
        let mut d3 = TelemetryDelta { site: 3, ..TelemetryDelta::default() };
        d3.spans.push(span(3, 100, 200));
        fleet.apply(&d3);
        // No offset stored: spans pass through unshifted, clamped at 0.
        let mut d4 = TelemetryDelta { site: 4, ..TelemetryDelta::default() };
        d4.spans.push(span(4, 30, 60));
        fleet.apply(&d4);
        let spans = fleet.spans();
        assert_eq!((spans[0].start_us, spans[0].end_us), (1_000_100, 1_000_200));
        assert_eq!((spans[1].start_us, spans[1].end_us), (50, 150));
        assert_eq!((spans[2].start_us, spans[2].end_us), (30, 60));
    }

    #[test]
    fn negative_offset_clamps_at_zero() {
        let fleet = FleetAggregator::new();
        fleet.set_offset(0, -500);
        let mut d = TelemetryDelta { site: 0, ..TelemetryDelta::default() };
        d.spans.push(SpanRecord {
            trace: TraceId::new(0, 0),
            span: SpanId::new(0, 1),
            parent: None,
            name: SITE_CHUNK,
            node: 0,
            start_us: 100,
            end_us: 600,
            cost_us: 0,
        });
        fleet.apply(&d);
        let spans = fleet.spans();
        assert_eq!((spans[0].start_us, spans[0].end_us), (0, 100));
    }

    #[test]
    fn split_site_only_matches_strict_prefix() {
        assert_eq!(split_site("site3.em.cost_us"), ("em.cost_us", Some("3")));
        assert_eq!(split_site("site12.net.bytes"), ("net.bytes", Some("12")));
        assert_eq!(split_site("net.bytes"), ("net.bytes", None));
        assert_eq!(split_site("site.chunks"), ("site.chunks", None));
        assert_eq!(split_site("siteX.chunks"), ("siteX.chunks", None));
        assert_eq!(split_site("site3"), ("site3", None));
    }

    #[test]
    fn exposition_basics() {
        let fleet = FleetAggregator::new();
        fleet.apply(&delta(0));
        fleet.apply(&delta(1));
        let text = fleet.prometheus_text();
        assert!(text.starts_with("# TYPE cludistream_up gauge\ncludistream_up 1\n"), "{text}");
        assert!(text.contains("# TYPE cludistream_net_bytes_total counter\n"), "{text}");
        assert!(text.contains("cludistream_net_bytes_total 300\n"), "{text}");
        assert!(text.contains("cludistream_net_bytes_total{site=\"0\"} 100\n"), "{text}");
        assert!(text.contains("cludistream_coord_groups{site=\"1\"} 1\n"), "{text}");
        assert!(
            text.contains("cludistream_em_iters_per_fit{site=\"1\",quantile=\"0.5\"} 20\n"),
            "{text}"
        );
        assert!(text.contains("cludistream_em_iters_per_fit_count{site=\"0\"} 1\n"), "{text}");
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, fleet.prometheus_text());
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn f64_formatting() {
        assert_eq!(format_f64(2.0), "2");
        assert_eq!(format_f64(-3.0), "-3");
        assert_eq!(format_f64(2.5), "2.5");
        assert_eq!(format_f64(f64::NAN), "NaN");
        assert_eq!(format_f64(f64::INFINITY), "+Inf");
        assert_eq!(format_f64(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn skipped_names_count_as_unknown_series() {
        let fleet = FleetAggregator::new();
        fleet.apply(&TelemetryDelta { site: 0, unknown: 3, ..TelemetryDelta::default() });
        fleet.apply(&TelemetryDelta { site: 1, unknown: 2, ..TelemetryDelta::default() });
        assert_eq!(fleet.registry().counter_value("obs.unknown_series"), 5);
    }

    /// Interning is what keeps a long-lived node from leaking a name per
    /// heartbeat: the same per-site or alert name is the same allocation.
    #[test]
    fn derived_names_are_interned_once() {
        let a = site_name(3, EM_ITERS_PER_FIT.as_str());
        let b = site_name(3, EM_ITERS_PER_FIT.as_str());
        assert_eq!(a, "site3.em.iters_per_fit");
        assert!(std::ptr::eq(a, b), "site name leaked twice");
        assert!(std::ptr::eq(intern("alert.x".into()), intern("alert.x".into())));
        assert!(!std::ptr::eq(a, site_name(4, EM_ITERS_PER_FIT.as_str())));
    }

    #[test]
    fn alert_verdicts_are_mirrored_as_gauges() {
        let fleet = FleetAggregator::new();
        fleet.set_site_gauge(4, ROUND_STATE, 1.0);
        assert_eq!(fleet.registry().gauge_value("site4.round_state"), Some(1.0));
        let alerts = AlertSet::new(vec![AlertRule {
            name: "round-stalled".into(),
            metric: COORD_ROUND_STARTED.as_str().into(),
            kind: AlertKind::GaugeBelow { threshold: 1.0 },
        }]);
        let states = fleet.evaluate_alerts(&alerts);
        assert!(states[0].firing, "absent gauge fires");
        assert_eq!(fleet.registry().gauge_value("alert.round-stalled"), Some(1.0));
        fleet.registry().gauge(COORD_ROUND_STARTED, 1.0);
        fleet.evaluate_alerts(&alerts);
        assert_eq!(fleet.registry().gauge_value("alert.round-stalled"), Some(0.0));
    }

    // Byte-exact goldens for the Prometheus renderer: families in
    // mangled-name order, the unlabelled fleet total before per-site
    // samples, per-site samples in label order, counters suffixed
    // `_total`, histograms as summaries with exact quantiles only for
    // tracked series. They sit inside the crate because they record names
    // no catalogue entry declares (`load.factor`, `alert.firing`, a child's
    // `em.cost_us`) to pin the renderer, not the vocabulary.

    #[test]
    fn exposition_matches_golden_document() {
        let r = Registry::new();
        r.counter(NET_BYTES, 300);
        r.counter(Counter("site0.net.bytes"), 100);
        r.counter(Counter("site1.net.bytes"), 200);
        r.counter(COORD_TELEMETRY_DECODE_ERR, 1);
        r.gauge(COORD_ROUND_STARTED, 1.0);
        r.gauge(Gauge("load.factor"), 0.625);
        r.gauge(Gauge("site10.round_state"), 2.0);
        r.gauge(Gauge("site2.round_state"), 1.0);
        r.track_quantiles(HB_RTT_US);
        for v in [100, 200, 300] {
            r.observe(HB_RTT_US, v);
        }
        // Untracked series: a summary with `_count`/`_sum` but no quantiles.
        r.observe(Histogram("site0.em.cost_us"), 50);

        let golden = "\
# TYPE cludistream_up gauge
cludistream_up 1
# TYPE cludistream_coord_telemetry_decode_err_total counter
cludistream_coord_telemetry_decode_err_total 1
# TYPE cludistream_net_bytes_total counter
cludistream_net_bytes_total 300
cludistream_net_bytes_total{site=\"0\"} 100
cludistream_net_bytes_total{site=\"1\"} 200
# TYPE cludistream_coord_round_started gauge
cludistream_coord_round_started 1
# TYPE cludistream_load_factor gauge
cludistream_load_factor 0.625
# TYPE cludistream_round_state gauge
cludistream_round_state{site=\"10\"} 2
cludistream_round_state{site=\"2\"} 1
# TYPE cludistream_em_cost_us summary
cludistream_em_cost_us_count{site=\"0\"} 1
cludistream_em_cost_us_sum{site=\"0\"} 50
# TYPE cludistream_hb_rtt_us summary
cludistream_hb_rtt_us{quantile=\"0.5\"} 200
cludistream_hb_rtt_us{quantile=\"0.9\"} 300
cludistream_hb_rtt_us{quantile=\"0.99\"} 300
cludistream_hb_rtt_us_count 3
cludistream_hb_rtt_us_sum 600
";
        assert_eq!(prometheus_text(&r), golden);
    }

    /// The quality/health plane's series — per-site quality gauges folded
    /// from telemetry deltas, fleet-summed drift counters, the
    /// coordinator's `alert.<rule>` rule-state gauges, and the tracked
    /// `serve.score_us` latency summary — must render byte-exactly:
    /// kebab-case rule names mangle to underscores, negative log
    /// likelihoods keep their sign, and family ordering stays sorted.
    #[test]
    fn quality_and_health_series_match_golden_document() {
        let r = Registry::new();
        r.counter(QUALITY_PH_DRIFT, 1);
        r.counter(Counter("site0.quality.ph_drift"), 1);
        r.counter(QUALITY_EWMA_DRIFT, 2);
        r.counter(Counter("site0.quality.ewma_drift"), 2);
        r.gauge(Gauge("alert.firing"), 1.0);
        r.gauge(Gauge("alert.round-stalled"), 0.0);
        r.gauge(Gauge("alert.snapshot-stale"), 1.0);
        r.gauge(COORD_ROUND_STARTED, 1.0);
        r.gauge(SERVE_STALENESS_ROUNDS, 9.0);
        for (gauge, v) in [
            (QUALITY_AVG_LL, -1.25),
            (QUALITY_PH_STAT, 0.75),
            (QUALITY_RECLUSTER_EWMA, 0.2),
            (QUALITY_WEIGHT_MIN, 0.125),
        ] {
            r.gauge(Gauge(site_name(0, gauge.as_str())), v);
        }
        r.track_quantiles(SERVE_SCORE_US);
        for v in [40, 80, 120] {
            r.observe(SERVE_SCORE_US, v);
        }

        let golden = "\
# TYPE cludistream_up gauge
cludistream_up 1
# TYPE cludistream_quality_ewma_drift_total counter
cludistream_quality_ewma_drift_total 2
cludistream_quality_ewma_drift_total{site=\"0\"} 2
# TYPE cludistream_quality_ph_drift_total counter
cludistream_quality_ph_drift_total 1
cludistream_quality_ph_drift_total{site=\"0\"} 1
# TYPE cludistream_alert_firing gauge
cludistream_alert_firing 1
# TYPE cludistream_alert_round_stalled gauge
cludistream_alert_round_stalled 0
# TYPE cludistream_alert_snapshot_stale gauge
cludistream_alert_snapshot_stale 1
# TYPE cludistream_coord_round_started gauge
cludistream_coord_round_started 1
# TYPE cludistream_quality_avg_ll gauge
cludistream_quality_avg_ll{site=\"0\"} -1.25
# TYPE cludistream_quality_ph_stat gauge
cludistream_quality_ph_stat{site=\"0\"} 0.75
# TYPE cludistream_quality_recluster_ewma gauge
cludistream_quality_recluster_ewma{site=\"0\"} 0.2
# TYPE cludistream_quality_weight_min gauge
cludistream_quality_weight_min{site=\"0\"} 0.125
# TYPE cludistream_serve_staleness_rounds gauge
cludistream_serve_staleness_rounds 9
# TYPE cludistream_serve_score_us summary
cludistream_serve_score_us{quantile=\"0.5\"} 80
cludistream_serve_score_us{quantile=\"0.9\"} 120
cludistream_serve_score_us{quantile=\"0.99\"} 120
cludistream_serve_score_us_count 3
cludistream_serve_score_us_sum 240
";
        assert_eq!(prometheus_text(&r), golden);
    }
}
