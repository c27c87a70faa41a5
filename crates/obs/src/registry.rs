//! The storing [`Recorder`]: named counters, gauges and histograms behind
//! one mutex, plus the optional JSONL journal writer.

use crate::catalogue::{Counter, Gauge, Histogram};
use crate::histogram::{HistogramSnapshot, Log2Histogram};
use crate::journal::Event;
use crate::quantile::QuantileSketch;
use crate::recorder::Recorder;
use crate::telemetry::TelemetryDelta;
use crate::trace::{SpanId, SpanRecord};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering it when poisoned: every structure this crate
/// guards is valid between statements, and peer bytes reach the callers.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Log2Histogram>,
    sketches: BTreeMap<&'static str, QuantileSketch>,
    /// When true, every record call also feeds the telemetry capture
    /// below, which [`Registry::drain_telemetry`] swaps out periodically.
    telemetry: bool,
    tele_counters: BTreeMap<Counter, u64>,
    tele_gauges: BTreeMap<Gauge, f64>,
    tele_observations: Vec<(Histogram, u64)>,
}

/// Span storage: per-node id allocators plus the flat record list. Records
/// keep insertion order (deterministic under the single-threaded
/// simulator); `index` maps span id → record position for `close_span`.
/// `drained` is the telemetry cursor: records before it were already
/// shipped in a [`TelemetryDelta`].
#[derive(Debug, Default)]
struct TraceState {
    next_seq: BTreeMap<u32, u64>,
    records: Vec<SpanRecord>,
    index: BTreeMap<u64, usize>,
    drained: usize,
}

/// Bounded ring of the most recent journal lines (the site-side flight
/// recorder). `cap == 0` means disabled.
#[derive(Debug, Default)]
struct FlightRing {
    cap: usize,
    lines: VecDeque<String>,
}

/// The metrics registry and journal sink.
///
/// One `Registry` is shared (via [`crate::Obs`]) by every instrumented
/// layer of a run: sites, coordinator, driver and simulator. `BTreeMap`
/// storage means every report is name-sorted without an explicit sort,
/// and keys are the `&'static str` of a [`crate::catalogue`] handle, so
/// recording never allocates for the name.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Metrics>,
    events_recorded: AtomicU64,
    sim_time: AtomicU64,
    journal: Mutex<Option<Box<dyn Write + Send>>>,
    tracing: AtomicBool,
    trace: Mutex<TraceState>,
    flight: Mutex<FlightRing>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("events_recorded", &self.events_recorded.load(Ordering::Relaxed))
            .field("sim_time", &self.sim_time.load(Ordering::Relaxed))
            .finish()
    }
}

impl Registry {
    /// Creates a registry with no journal: events still count toward
    /// [`Registry::events_recorded`] but are not persisted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns on telemetry capture: from now on every counter/gauge/observe
    /// call is additionally staged for the next
    /// [`Recorder::drain_telemetry`]. Off by default, so registries that
    /// never flush (the simulator, tests) pay only a `bool` check.
    pub fn enable_telemetry(&self) {
        lock(&self.metrics).telemetry = true;
    }

    /// Turns on the flight recorder: the last `cap` journal lines are
    /// retained in a ring (independent of whether a journal writer is
    /// attached) and shipped with the next drained delta that asks for
    /// them — the post-mortem trail a crashed site leaves behind.
    pub fn enable_flight_recorder(&self, cap: usize) {
        let mut flight = lock(&self.flight);
        flight.cap = cap;
        while flight.lines.len() > cap {
            flight.lines.pop_front();
        }
    }

    /// Drains everything recorded since the previous drain into a
    /// [`TelemetryDelta`] (site 0; the sender stamps its index). Spans are
    /// included from the telemetry cursor onward — a span still open at
    /// drain time ships with `end_us == start_us` and is *not* re-sent
    /// when later closed. With `include_flight` the flight-recorder ring
    /// is moved into the delta too. Returns `None` when nothing new was
    /// recorded (including when telemetry capture was never enabled).
    pub(crate) fn drain_telemetry(&self, include_flight: bool) -> Option<TelemetryDelta> {
        let mut delta = TelemetryDelta {
            local_now_us: self.sim_time.load(Ordering::Relaxed),
            ..TelemetryDelta::default()
        };
        {
            let mut m = lock(&self.metrics);
            if !m.telemetry {
                return None;
            }
            delta.counters = std::mem::take(&mut m.tele_counters).into_iter().collect();
            delta.gauges = std::mem::take(&mut m.tele_gauges).into_iter().collect();
            let mut grouped: BTreeMap<Histogram, Vec<u64>> = BTreeMap::new();
            for (histogram, value) in std::mem::take(&mut m.tele_observations) {
                grouped.entry(histogram).or_default().push(value);
            }
            delta.observations = grouped.into_iter().collect();
        }
        {
            let mut trace = lock(&self.trace);
            let from = trace.drained;
            delta.spans.extend_from_slice(&trace.records[from..]);
            trace.drained = trace.records.len();
        }
        if include_flight {
            let mut flight = lock(&self.flight);
            delta.flight = flight.lines.drain(..).collect();
        }
        (!delta.is_empty()).then_some(delta)
    }

    /// Turns on span tracing. Off by default so existing metrics/journal
    /// workloads (and their golden fixtures) are byte-for-byte unaffected
    /// by trace instrumentation.
    pub fn enable_tracing(&self) {
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// All span records, in allocation order. Open spans (never closed)
    /// keep `end_us == start_us`.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.trace).records.clone()
    }

    /// Registers an exact quantile sketch fed by every subsequent
    /// [`Recorder::observe`] of `histogram` (with the default rank-error
    /// bound, 0.001). Observations recorded
    /// before registration are not replayed.
    pub fn track_quantiles(&self, histogram: Histogram) {
        lock(&self.metrics).sketches.entry(histogram.0).or_default();
    }

    /// Exact (within the sketch's εn rank error) quantile of a tracked
    /// series, or `None` when no sketch is registered or it is empty.
    pub fn exact_quantile(&self, name: &str, q: f64) -> Option<u64> {
        lock(&self.metrics).sketches.get(name).and_then(|s| s.query(q))
    }

    /// Name-sorted `(name, count, p50, p90, p99, max)` rows for every
    /// non-empty registered quantile sketch.
    pub(crate) fn quantile_rows(&self) -> Vec<(&'static str, u64, u64, u64, u64, u64)> {
        let metrics = lock(&self.metrics);
        metrics
            .sketches
            .iter()
            .filter(|(_, s)| s.count() > 0)
            .map(|(&name, s)| {
                (
                    name,
                    s.count(),
                    s.query(0.5).unwrap_or(0),
                    s.query(0.9).unwrap_or(0),
                    s.query(0.99).unwrap_or(0),
                    s.max().unwrap_or(0),
                )
            })
            .collect()
    }

    /// Creates a registry journaling every event as one JSONL line into
    /// `writer`. Call [`Registry::flush_journal`] before reading the
    /// output.
    pub fn with_journal(writer: Box<dyn Write + Send>) -> Self {
        let r = Registry::new();
        *lock(&r.journal) = Some(writer);
        r
    }

    /// Flushes the journal writer, if any.
    pub fn flush_journal(&self) -> std::io::Result<()> {
        match lock(&self.journal).as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    /// Total events recorded (journaled or not).
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded.load(Ordering::Relaxed)
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.metrics).counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        lock(&self.metrics).gauges.get(name).copied()
    }

    /// Snapshot of a histogram, if it has recorded anything.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        lock(&self.metrics).histograms.get(name).map(Log2Histogram::snapshot)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        lock(&self.metrics).counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// All gauges, name-sorted.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        lock(&self.metrics).gauges.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// All histogram snapshots, name-sorted.
    pub fn histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        lock(&self.metrics).histograms.iter().map(|(&k, h)| (k, h.snapshot())).collect()
    }

    /// Renders the whole registry as a fixed-width human-readable table
    /// (the `cli metrics` summary).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let counters = self.counters();
        let gauges = self.gauges();
        let histograms = self.histograms();
        if !counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in counters {
                let _ = writeln!(out, "  {name:<28} {v:>12}");
            }
        }
        if !gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in gauges {
                let _ = writeln!(out, "  {name:<28} {v:>12.3}");
            }
        }
        if !histograms.is_empty() {
            // p50< / p99< are log2-bucket *upper bounds* (the quantile is
            // strictly below the printed value), not the quantiles
            // themselves — see the "quantiles (exact)" section for those.
            let _ = writeln!(
                out,
                "histograms:                        count          mean          p50<          p99<           max"
            );
            for (name, s) in histograms {
                let _ = writeln!(
                    out,
                    "  {name:<28} {:>12} {:>13.1} {:>13} {:>13} {:>13}",
                    s.count, s.mean, s.p50_ub, s.p99_ub, s.max
                );
            }
        }
        let quantiles = self.quantile_rows();
        if !quantiles.is_empty() {
            let _ = writeln!(
                out,
                "quantiles (exact):                 count           p50           p90           p99           max"
            );
            for (name, count, p50, p90, p99, max) in quantiles {
                let _ = writeln!(
                    out,
                    "  {name:<28} {count:>12} {p50:>13} {p90:>13} {p99:>13} {max:>13}"
                );
            }
        }
        let _ = writeln!(out, "events recorded: {}", self.events_recorded());
        out
    }
}

impl Recorder for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, counter: Counter, delta: u64) {
        let mut metrics = lock(&self.metrics);
        *metrics.counters.entry(counter.0).or_insert(0) += delta;
        if metrics.telemetry {
            *metrics.tele_counters.entry(counter).or_insert(0) += delta;
        }
    }

    fn gauge(&self, gauge: Gauge, value: f64) {
        let mut metrics = lock(&self.metrics);
        metrics.gauges.insert(gauge.0, value);
        if metrics.telemetry {
            metrics.tele_gauges.insert(gauge, value);
        }
    }

    fn observe(&self, histogram: Histogram, value: u64) {
        let mut metrics = lock(&self.metrics);
        metrics.histograms.entry(histogram.0).or_default().record(value);
        if let Some(sketch) = metrics.sketches.get_mut(histogram.0) {
            sketch.insert(value);
        }
        if metrics.telemetry {
            metrics.tele_observations.push((histogram, value));
        }
    }

    fn event(&self, event: &Event) {
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        let t = self.sim_time.load(Ordering::Relaxed);
        let mut journal = lock(&self.journal);
        if let Some(w) = journal.as_mut() {
            // Journal I/O errors must not poison the run; they surface
            // via the flush the reader performs before consuming output.
            let _ = writeln!(w, "{}", event.to_json(t));
        }
        drop(journal);
        let mut flight = lock(&self.flight);
        if flight.cap > 0 {
            if flight.lines.len() == flight.cap {
                flight.lines.pop_front();
            }
            flight.lines.push_back(event.to_json(t));
        }
    }

    fn set_sim_time(&self, micros: u64) {
        self.sim_time.store(micros, Ordering::Relaxed);
    }

    fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    fn sim_now_us(&self) -> u64 {
        self.sim_time.load(Ordering::Relaxed)
    }

    fn alloc_span(&self, node: u32) -> SpanId {
        if !self.tracing_enabled() {
            return SpanId::NONE;
        }
        let mut trace = lock(&self.trace);
        let seq = trace.next_seq.entry(node).or_insert(0);
        *seq += 1;
        SpanId::new(node, *seq)
    }

    fn record_span(&self, record: &SpanRecord) {
        if !self.tracing_enabled() {
            return;
        }
        let mut trace = lock(&self.trace);
        let idx = trace.records.len();
        trace.records.push(*record);
        trace.index.insert(record.span.0, idx);
    }

    fn close_span(&self, span: SpanId, end_us: u64) {
        if !self.tracing_enabled() {
            return;
        }
        let mut trace = lock(&self.trace);
        if let Some(&idx) = trace.index.get(&span.0) {
            let r = &mut trace.records[idx];
            r.end_us = end_us.max(r.start_us);
        }
    }

    fn drain_telemetry(&self, include_flight: bool) -> Option<TelemetryDelta> {
        Registry::drain_telemetry(self, include_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_sort() {
        let r = Registry::new();
        r.counter(Counter("b.two"), 2);
        r.counter(Counter("a.one"), 1);
        r.counter(Counter("b.two"), 3);
        assert_eq!(r.counter_value("b.two"), 5);
        assert_eq!(r.counter_value("missing"), 0);
        let names: Vec<_> = r.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge(Gauge("g"), 1.0);
        r.gauge(Gauge("g"), 2.5);
        assert_eq!(r.gauge_value("g"), Some(2.5));
        assert_eq!(r.gauge_value("missing"), None);
    }

    #[test]
    fn histograms_record() {
        let r = Registry::new();
        r.observe(Histogram("h"), 3);
        r.observe(Histogram("h"), 5);
        let s = r.histogram_snapshot("h").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 8);
    }

    #[test]
    fn journal_writes_jsonl_with_sim_time() {
        // Shared buffer so the test can read what the registry wrote.
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let r = Registry::with_journal(Box::new(buf.clone()));
        r.event(&Event::ReMerge { group: 3 });
        r.set_sim_time(1_500_000);
        r.event(&Event::SynopsisSent { site: 1, bytes: 100 });
        r.flush_journal().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"t\":0,\"event\":\"ReMerge\",\"group\":3}");
        assert_eq!(
            lines[1],
            "{\"t\":1500000,\"event\":\"SynopsisSent\",\"site\":1,\"bytes\":100}"
        );
        assert_eq!(r.events_recorded(), 2);
    }

    #[test]
    fn events_counted_without_journal() {
        let r = Registry::new();
        r.event(&Event::ReMerge { group: 0 });
        assert_eq!(r.events_recorded(), 1);
    }

    #[test]
    fn tracing_is_opt_in_and_deterministic() {
        use crate::catalogue::SpanName;
        use crate::trace::{SpanId, SpanRecord, TraceId};
        let r = Registry::new();
        // Off by default: allocations return NONE, records are dropped.
        assert!(!r.tracing_enabled());
        assert_eq!(r.alloc_span(0), SpanId::NONE);
        r.record_span(&SpanRecord {
            trace: TraceId::new(0, 0),
            span: SpanId::new(0, 1),
            parent: None,
            name: SpanName("dropped"),
            node: 0,
            start_us: 0,
            end_us: 0,
            cost_us: 0,
        });
        assert!(r.spans().is_empty());
        r.enable_tracing();
        // Per-node sequences are independent and start at 1.
        assert_eq!(r.alloc_span(0), SpanId::new(0, 1));
        assert_eq!(r.alloc_span(1), SpanId::new(1, 1));
        assert_eq!(r.alloc_span(0), SpanId::new(0, 2));
        let span = SpanId::new(0, 1);
        r.record_span(&SpanRecord {
            trace: TraceId::new(0, 0),
            span,
            parent: None,
            name: SpanName("wire"),
            node: 0,
            start_us: 100,
            end_us: 100,
            cost_us: 0,
        });
        r.close_span(span, 250);
        // Closing an unknown span is a no-op, and end never precedes start.
        r.close_span(SpanId::new(9, 9), 1);
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_us, 250);
        r.close_span(span, 50);
        assert_eq!(r.spans()[0].end_us, 100);
    }

    #[test]
    fn sketches_feed_from_observe_after_registration() {
        let r = Registry::new();
        r.observe(Histogram("lat"), 1); // before registration: not replayed
        r.track_quantiles(Histogram("lat"));
        for v in [10u64, 20, 30, 40] {
            r.observe(Histogram("lat"), v);
        }
        assert_eq!(r.exact_quantile("lat", 0.5), Some(20));
        assert_eq!(r.exact_quantile("lat", 1.0), Some(40));
        assert_eq!(r.exact_quantile("other", 0.5), None);
        let rows = r.quantile_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "lat");
        assert_eq!(rows[0].1, 4);
        // The histogram still records everything, including the pre-registration value.
        assert_eq!(r.histogram_snapshot("lat").unwrap().count, 5);
        let table = r.render_table();
        assert!(table.contains("quantiles (exact):"), "{table}");
        assert!(table.contains("p50<"), "{table}");
    }

    #[test]
    fn telemetry_capture_is_opt_in_and_drains_once() {
        let r = Registry::new();
        r.counter(Counter("pre"), 1);
        assert!(r.drain_telemetry(false).is_none(), "capture off: nothing staged");
        r.enable_telemetry();
        // Metrics recorded before enabling are not replayed.
        r.counter(Counter("net.bytes"), 10);
        r.counter(Counter("net.bytes"), 5);
        r.gauge(Gauge("window.models"), 2.0);
        r.gauge(Gauge("window.models"), 3.0);
        r.observe(Histogram("em.cost_us"), 40);
        r.observe(Histogram("em.cost_us"), 80);
        let delta = r.drain_telemetry(false).expect("staged");
        assert_eq!(delta.counters, vec![(Counter("net.bytes"), 15)]);
        assert_eq!(delta.gauges, vec![(Gauge("window.models"), 3.0)]);
        assert_eq!(delta.observations, vec![(Histogram("em.cost_us"), vec![40, 80])]);
        assert!(delta.spans.is_empty() && delta.flight.is_empty());
        // Drained means drained: a second drain with nothing new is None.
        assert!(r.drain_telemetry(false).is_none());
        r.counter(Counter("net.bytes"), 1);
        assert_eq!(r.drain_telemetry(false).unwrap().counters, vec![(Counter("net.bytes"), 1)]);
        // The cumulative registry view is unaffected by draining.
        assert_eq!(r.counter_value("net.bytes"), 16);
    }

    #[test]
    fn telemetry_drains_new_spans_only() {
        use crate::catalogue::SpanName;
        use crate::trace::{SpanId, SpanRecord, TraceId};
        let r = Registry::new();
        r.enable_telemetry();
        r.enable_tracing();
        let record = |seq: u64| SpanRecord {
            trace: TraceId::new(0, 0),
            span: SpanId::new(0, seq),
            parent: None,
            name: SpanName("s"),
            node: 0,
            start_us: seq,
            end_us: seq,
            cost_us: 0,
        };
        r.record_span(&record(1));
        let delta = r.drain_telemetry(false).expect("span staged");
        assert_eq!(delta.spans.len(), 1);
        r.record_span(&record(2));
        let delta = r.drain_telemetry(false).expect("second span");
        assert_eq!(delta.spans.len(), 1);
        assert_eq!(delta.spans[0].span, SpanId::new(0, 2));
    }

    #[test]
    fn flight_recorder_keeps_last_n_lines() {
        let r = Registry::new();
        r.enable_telemetry();
        r.enable_flight_recorder(2);
        r.set_sim_time(7);
        r.event(&Event::ReMerge { group: 1 });
        r.event(&Event::ReMerge { group: 2 });
        r.event(&Event::ReMerge { group: 3 });
        // Not included unless asked for.
        assert!(r.drain_telemetry(false).is_none());
        let delta = r.drain_telemetry(true).expect("flight staged");
        assert_eq!(
            delta.flight,
            vec![
                "{\"t\":7,\"event\":\"ReMerge\",\"group\":2}",
                "{\"t\":7,\"event\":\"ReMerge\",\"group\":3}"
            ]
        );
        // The ring was moved out, not copied.
        assert!(r.drain_telemetry(true).is_none());
    }

    #[test]
    fn render_table_lists_everything() {
        let r = Registry::new();
        r.counter(Counter("site.records"), 4);
        r.gauge(Gauge("coord.groups"), 2.0);
        r.observe(Histogram("em.iters_per_fit"), 12);
        let table = r.render_table();
        assert!(table.contains("site.records"), "{table}");
        assert!(table.contains("coord.groups"), "{table}");
        assert!(table.contains("em.iters_per_fit"), "{table}");
        assert!(table.contains("events recorded: 0"), "{table}");
    }
}
