//! The [`Recorder`] trait, the free no-op implementation, the shared
//! [`Obs`] handle, and span timers.

use crate::catalogue::{Counter, Gauge, Histogram};
use crate::journal::Event;
use crate::telemetry::TelemetryDelta;
use crate::trace::{SpanId, SpanRecord};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The sink instrumented code records into.
///
/// Every method has a no-op default, so implementations override only what
/// they store and call sites never branch. Hot paths that must be
/// *provably* free are generic over `R: Recorder` and monomorphize against
/// [`NopRecorder`], compiling the calls away entirely; everything else
/// goes through the dynamically-dispatched [`Obs`] handle, whose per-chunk
/// (never per-record) call frequency makes a virtual call irrelevant.
pub trait Recorder {
    /// True when this recorder stores anything. Call sites use this to
    /// skip *preparing* expensive measurements (e.g. reading the clock for
    /// a span), not to guard plain record calls.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to a declared monotone counter.
    fn counter(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// Sets a declared gauge to `value`.
    fn gauge(&self, gauge: Gauge, value: f64) {
        let _ = (gauge, value);
    }

    /// Records one observation into a declared log2 histogram.
    fn observe(&self, histogram: Histogram, value: u64) {
        let _ = (histogram, value);
    }

    /// Appends a typed event to the journal (stamped with the current
    /// simulated time).
    fn event(&self, event: &Event) {
        let _ = event;
    }

    /// Advances the simulated clock used to stamp journal events. The
    /// discrete-event simulator calls this as its clock moves; code running
    /// outside a simulation leaves it at 0.
    fn set_sim_time(&self, micros: u64) {
        let _ = micros;
    }

    /// True when span tracing is on. Tracing is opt-in *separately* from
    /// metrics ([`Recorder::enabled`]) so the metrics/faults golden
    /// fixtures are untouched by trace instrumentation.
    fn tracing_enabled(&self) -> bool {
        false
    }

    /// The current simulated time in microseconds (what
    /// [`Recorder::set_sim_time`] last stored). Span instrumentation reads
    /// the clock through this instead of threading timestamps by hand.
    fn sim_now_us(&self) -> u64 {
        0
    }

    /// Allocates the next deterministic span id for `node` (per-node
    /// sequence, starting at 1). Disabled recorders return the null id
    /// `SpanId(0)`.
    fn alloc_span(&self, node: u32) -> SpanId {
        let _ = node;
        SpanId::NONE
    }

    /// Stores one span record. Records may be stored open
    /// (`end_us == start_us`) and finished later via
    /// [`Recorder::close_span`].
    fn record_span(&self, record: &SpanRecord) {
        let _ = record;
    }

    /// Sets the end time of a previously recorded span (e.g. a wire span
    /// closed when the coordinator's inbox releases the message).
    fn close_span(&self, span: SpanId, end_us: u64) {
        let _ = (span, end_us);
    }

    /// Drains everything staged for fleet telemetry since the last drain
    /// (see [`crate::Registry::enable_telemetry`]). `None` for recorders
    /// without telemetry capture — the default — so transports flush
    /// through the [`Obs`] handle without knowing the concrete recorder.
    fn drain_telemetry(&self, include_flight: bool) -> Option<TelemetryDelta> {
        let _ = include_flight;
        None
    }
}

/// The recorder that records nothing. All methods inherit the trait's
/// no-op defaults, so monomorphized call sites vanish at compile time —
/// the API-contract form of "instrumentation costs nothing when disabled"
/// (the `noop_alloc` integration test additionally pins down that no
/// allocation sneaks in).
#[derive(Debug, Clone, Copy, Default)]
pub struct NopRecorder;

impl Recorder for NopRecorder {}

/// A cheap, cloneable, shareable handle to a [`Recorder`].
///
/// This is what flows through constructors and config structs: it is
/// `Clone + Debug + Default` (defaulting to the no-op recorder), so
/// embedding it in `DriverConfig`-style structs costs nothing
/// syntactically.
#[derive(Clone)]
pub struct Obs(Arc<dyn Recorder + Send + Sync>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.0.enabled()).finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl Obs {
    /// Wraps an arbitrary recorder.
    pub fn new(recorder: Arc<dyn Recorder + Send + Sync>) -> Self {
        Obs(recorder)
    }

    /// Wraps a [`crate::Registry`] (the common case).
    pub fn from_registry(registry: Arc<crate::Registry>) -> Self {
        Obs(registry)
    }

    /// The shared no-op handle. Cloning an `Arc` of a zero-sized type —
    /// no allocation after the first call.
    pub fn noop() -> Self {
        static NOOP: OnceLock<Arc<NopRecorder>> = OnceLock::new();
        Obs(NOOP.get_or_init(|| Arc::new(NopRecorder)).clone())
    }

    /// Starts a wall-clock span that records its duration in nanoseconds
    /// into `histogram` when dropped. When the recorder is disabled the
    /// clock is never read.
    pub fn span(&self, histogram: Histogram) -> Span<'_> {
        Span {
            obs: self,
            histogram,
            start: self.0.enabled().then(Instant::now),
        }
    }
}

impl Recorder for Obs {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }
    fn counter(&self, counter: Counter, delta: u64) {
        self.0.counter(counter, delta);
    }
    fn gauge(&self, gauge: Gauge, value: f64) {
        self.0.gauge(gauge, value);
    }
    fn observe(&self, histogram: Histogram, value: u64) {
        self.0.observe(histogram, value);
    }
    fn event(&self, event: &Event) {
        self.0.event(event);
    }
    fn set_sim_time(&self, micros: u64) {
        self.0.set_sim_time(micros);
    }
    fn tracing_enabled(&self) -> bool {
        self.0.tracing_enabled()
    }
    fn sim_now_us(&self) -> u64 {
        self.0.sim_now_us()
    }
    fn alloc_span(&self, node: u32) -> SpanId {
        self.0.alloc_span(node)
    }
    fn record_span(&self, record: &SpanRecord) {
        self.0.record_span(record);
    }
    fn close_span(&self, span: SpanId, end_us: u64) {
        self.0.close_span(span, end_us);
    }
    fn drain_telemetry(&self, include_flight: bool) -> Option<TelemetryDelta> {
        self.0.drain_telemetry(include_flight)
    }
}

/// RAII wall-clock timer from [`Obs::span`]. Durations land in registry
/// histograms only — never in the journal — so they cannot break journal
/// determinism.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span<'a> {
    obs: &'a Obs,
    histogram: Histogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos();
            self.obs.observe(self.histogram, ns.min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{COORD_GROUPS, EM_ESTEP_BLOCKS, SITE_CHUNK_NS};
    use crate::Registry;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let r = NopRecorder;
        assert!(!r.enabled());
        r.counter(EM_ESTEP_BLOCKS, 1);
        r.gauge(COORD_GROUPS, 1.0);
        r.observe(SITE_CHUNK_NS, 1);
        r.event(&Event::ReMerge { group: 0 });
        r.set_sim_time(9);
        assert!(!r.tracing_enabled());
        assert_eq!(r.sim_now_us(), 0);
        assert_eq!(r.alloc_span(3), SpanId::NONE);
        r.close_span(SpanId::NONE, 5);
    }

    #[test]
    fn obs_default_is_noop() {
        let obs = Obs::default();
        assert!(!obs.enabled());
        let dbg = format!("{obs:?}");
        assert!(dbg.contains("enabled: false"), "{dbg}");
    }

    #[test]
    fn span_records_into_histogram_when_enabled() {
        let registry = Arc::new(Registry::new());
        let obs = Obs::from_registry(registry.clone());
        {
            let _span = obs.span(SITE_CHUNK_NS);
            std::hint::black_box(1 + 1);
        }
        let h = registry.histogram_snapshot("site.chunk_ns").expect("recorded");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn span_skips_clock_when_disabled() {
        let obs = Obs::noop();
        let span = obs.span(SITE_CHUNK_NS);
        assert!(span.start.is_none());
    }
}
