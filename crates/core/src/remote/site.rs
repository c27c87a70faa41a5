use crate::config::Config;
use crate::remote::event_table::EventTable;
use crate::remote::model_list::{ModelId, ModelList};
use cludistream_gmm::{
    fit_em_recorded, fit_tolerance, free_parameters, j_fit, log_likelihood_std, Columns, GmmError,
    Mixture, MixtureScratch,
};
use cludistream_linalg::Vector;
use cludistream_obs::catalogue::{self, SpanName};
use cludistream_obs::{
    em_cost_us, Event, EwmaDetector, Obs, PageHinkley, Recorder, SpanId, SpanRecord, TraceCtx,
    TraceId, Verdict, CHURN_ALPHA,
};

/// What a remote site emits toward the coordinator. Stability costs
/// nothing: a chunk fitting the *current* model produces no message at all
/// (paper Sec. 5.3, "Stability").
#[derive(Debug, Clone)]
pub enum SiteEvent {
    /// A new model was learned from a chunk that fit nothing; carries the
    /// full synopsis.
    NewModel {
        /// The model's site-local id.
        model: ModelId,
        /// The learned mixture (the synopsis to transmit).
        mixture: Mixture,
        /// Initial record count (one chunk).
        count: u64,
        /// Average log likelihood of the founding chunk.
        avg_ll: f64,
    },
    /// A chunk re-fit a *previous* model from the model list (multi-test
    /// hit); only a weight update needs transmitting.
    WeightUpdate {
        /// The re-activated model.
        model: ModelId,
        /// Records added to its counter.
        count_delta: u64,
    },
    /// A model was evicted from a bounded model list
    /// (`Config::max_models`); the coordinator should drop its weight.
    Retired {
        /// The evicted model.
        model: ModelId,
        /// Its record counter at eviction.
        count: u64,
    },
}

/// Outcome of processing one chunk (returned by [`RemoteSite::push`] at
/// chunk boundaries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkOutcome {
    /// The chunk fit the current model; counter bumped, no communication.
    FitCurrent {
        /// The observed test statistic.
        j_fit: f64,
    },
    /// The chunk fit an older model from the list; the site switched
    /// current models and queued a weight update.
    SwitchedTo {
        /// The model switched to.
        model: ModelId,
        /// The observed test statistic against that model.
        j_fit: f64,
        /// How many list models were tested before the hit (including the
        /// current-model test).
        tests: usize,
    },
    /// No model fit; EM ran and a new model was created and queued for
    /// transmission.
    NewModel {
        /// The newly created model.
        model: ModelId,
        /// Fit tests performed before giving up.
        tests: usize,
    },
}

/// Counters describing a site's processing history (drives the scalability
/// experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Records consumed.
    pub records: u64,
    /// Chunks processed.
    pub chunks: u64,
    /// Chunks that fit the current model.
    pub fit_current: u64,
    /// Chunks that re-fit an older model.
    pub switched: u64,
    /// Chunks that required EM clustering.
    pub clustered: u64,
    /// Total model-fit tests performed.
    pub tests: u64,
    /// Total EM iterations across all clustering calls.
    pub em_iterations: u64,
}

/// A CluDistream remote site: the test-and-cluster processor of paper
/// Algorithm 1 with the multi-test extension of Sec. 5.1.2.
///
/// Records are [`RemoteSite::push`]ed one at a time into one `M × d`
/// chunk buffer; every `M` records (Theorem 1's chunk size) the buffered
/// chunk is tested against the current model, then against up to
/// `c_max − 1` recent models from the model list, and clustered with EM
/// only when every test fails. Messages
/// for the coordinator accumulate in an outbox drained with
/// [`RemoteSite::drain_events`].
#[derive(Debug)]
pub struct RemoteSite {
    config: Config,
    chunk_size: usize,
    /// The chunk being filled: Theorem 3's `M × d` buffer, allocated once
    /// and reused from chunk to chunk. The chunk test and EM read it in
    /// place.
    buffer: Columns,
    /// Records in `buffer` so far.
    buffered: usize,
    models: ModelList,
    events: EventTable,
    current: Option<ModelId>,
    chunk_index: u64,
    outbox: Vec<SiteEvent>,
    /// Trace context per outbox entry (kept parallel to `outbox`; always
    /// pushed through [`RemoteSite::queue_event`]).
    outbox_ctx: Vec<Option<TraceCtx>>,
    stats: SiteStats,
    obs: Obs,
    obs_site: u32,
    quality: Option<QualityState>,
    /// Workspace of the chunk tests' density kernels, reused across chunks.
    scratch: MixtureScratch,
}

/// Streaming model-quality state, allocated only when
/// [`Config::quality`] opts the site into the quality plane: the two
/// drift detectors over the per-chunk average log-likelihood series and
/// the re-cluster-rate EWMA.
#[derive(Debug)]
struct QualityState {
    ph: PageHinkley,
    ewma: EwmaDetector,
    /// EWMA of the re-cluster indicator (1 when a tested chunk fell
    /// through every fit test to EM, 0 otherwise), smoothed by
    /// [`CHURN_ALPHA`].
    recluster_ewma: f64,
}

impl RemoteSite {
    /// Creates a site. Fails on invalid configuration.
    pub fn new(config: Config) -> Result<Self, GmmError> {
        config.validate()?;
        let chunk_size = config.chunk_size()?;
        let quality = config.quality.then(|| QualityState {
            ph: PageHinkley::default(),
            ewma: EwmaDetector::default(),
            recluster_ewma: 0.0,
        });
        Ok(RemoteSite {
            buffer: Columns::zeros(chunk_size, config.dim),
            config,
            chunk_size,
            buffered: 0,
            models: ModelList::new(),
            events: EventTable::new(),
            current: None,
            chunk_index: 0,
            outbox: Vec::new(),
            outbox_ctx: Vec::new(),
            stats: SiteStats::default(),
            obs: Obs::noop(),
            obs_site: 0,
            quality,
            scratch: MixtureScratch::default(),
        })
    }

    /// Attaches a telemetry observer; `site` identifies this site in
    /// journaled events. Off by default (a no-op recorder), so uninstru-
    /// mented use pays nothing.
    pub fn set_observer(&mut self, obs: Obs, site: u32) {
        self.obs = obs;
        self.obs_site = site;
    }

    /// The chunk size M in records.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The site configuration.
    pub(crate) fn config(&self) -> &Config {
        &self.config
    }

    /// Index of the chunk currently being filled.
    pub fn chunk_index(&self) -> u64 {
        self.chunk_index
    }

    /// Processing statistics.
    pub fn stats(&self) -> SiteStats {
        self.stats
    }

    /// The model list (all distributions seen so far).
    pub fn models(&self) -> &ModelList {
        &self.models
    }

    /// The event table (regime history).
    pub fn events(&self) -> &EventTable {
        &self.events
    }

    /// Mutable model-list access for window wrappers (weight decrements and
    /// expiry are window concerns, not Algorithm 1 concerns).
    pub(crate) fn models_mut(&mut self) -> &mut ModelList {
        &mut self.models
    }

    /// Records buffered toward the next chunk, in arrival order (snapshot
    /// support).
    pub(crate) fn buffered_records(
        &self,
    ) -> impl ExactSizeIterator<Item = impl Iterator<Item = f64> + '_> {
        (0..self.buffered).map(|b| self.buffer.record(b))
    }

    /// Installs restored state (snapshot support); `buffered` holds whole
    /// records, fewer than a chunk's.
    pub(crate) fn install_snapshot(
        &mut self,
        models: ModelList,
        events: EventTable,
        current: Option<ModelId>,
        chunk_index: u64,
        stats: SiteStats,
        buffered: &[f64],
    ) {
        self.models = models;
        self.events = events;
        self.current = current;
        self.chunk_index = chunk_index;
        self.stats = stats;
        let records = buffered.chunks_exact(self.config.dim);
        self.buffered = records.len();
        for (b, x) in records.enumerate() {
            self.buffer.set_record(b, x);
        }
    }

    /// The current model's id, if a first chunk has been clustered.
    pub(crate) fn current_model(&self) -> Option<ModelId> {
        self.current
    }

    /// The current model's mixture.
    pub fn current_mixture(&self) -> Option<&Mixture> {
        self.models.get(self.current?).map(|e| &e.mixture)
    }

    /// Consumes one record: copies it into its slot of the chunk buffer
    /// and drops it. Returns `Ok(Some(outcome))` when the record completed
    /// a chunk and the chunk was processed.
    pub fn push(&mut self, x: Vector) -> Result<Option<ChunkOutcome>, GmmError> {
        if x.dim() != self.config.dim {
            return Err(GmmError::DimensionMismatch { expected: self.config.dim, got: x.dim() });
        }
        self.stats.records += 1;
        self.buffer.set_record(self.buffered, x.as_slice());
        self.buffered += 1;
        if self.buffered < self.chunk_size {
            return Ok(None);
        }
        // The next chunk starts empty whatever this one's outcome; the
        // buffer is lent out for the chunk's processing and kept.
        self.buffered = 0;
        let chunk = std::mem::take(&mut self.buffer);
        let outcome = self.process_chunk(&chunk);
        self.buffer = chunk;
        outcome.map(Some)
    }

    /// Drains the coordinator-bound message queue.
    pub fn drain_events(&mut self) -> Vec<SiteEvent> {
        self.outbox_ctx.clear();
        std::mem::take(&mut self.outbox)
    }

    /// Drains the message queue with each event's trace context (the wire
    /// span allocated when the event was produced; `None` when tracing is
    /// off or the event has no traced origin).
    pub(crate) fn drain_events_traced(&mut self) -> Vec<(SiteEvent, Option<TraceCtx>)> {
        let ctxs = std::mem::take(&mut self.outbox_ctx);
        let events = std::mem::take(&mut self.outbox);
        debug_assert_eq!(events.len(), ctxs.len());
        events.into_iter().zip(ctxs).collect()
    }

    /// The single path into the outbox, keeping event and context vectors
    /// aligned.
    fn queue_event(&mut self, event: SiteEvent, ctx: Option<TraceCtx>) {
        self.outbox.push(event);
        self.outbox_ctx.push(ctx);
    }

    /// Opens the root span of this chunk's trace, when tracing is on.
    fn trace_root(&self, this_chunk: u64) -> Option<(TraceId, SpanId)> {
        if !self.obs.tracing_enabled() {
            return None;
        }
        let trace = TraceId::new(self.obs_site, this_chunk);
        let span = self.obs.alloc_span(self.obs_site);
        let now = self.obs.sim_now_us();
        self.obs.record_span(&SpanRecord {
            trace,
            span,
            parent: None,
            name: catalogue::SITE_CHUNK,
            node: self.obs_site,
            start_us: now,
            end_us: now,
            cost_us: 0,
        });
        Some((trace, span))
    }

    /// Records a child span under the chunk root and returns its context.
    /// Wire spans (`wire.synopsis` / `wire.update`) are recorded open here
    /// and closed by the coordinator at inbox release.
    fn trace_child(
        &self,
        root: Option<(TraceId, SpanId)>,
        name: SpanName,
        cost_us: u64,
    ) -> Option<TraceCtx> {
        let (trace, parent) = root?;
        let span = self.obs.alloc_span(self.obs_site);
        let now = self.obs.sim_now_us();
        self.obs.record_span(&SpanRecord {
            trace,
            span,
            parent: Some(parent),
            name,
            node: self.obs_site,
            start_us: now,
            end_us: now,
            cost_us,
        });
        Some(TraceCtx { trace, span })
    }

    /// Pending (undrained) events.
    pub fn pending_events(&self) -> usize {
        self.outbox.len()
    }

    /// Quality-plane emissions for one *tested* chunk (the first chunk
    /// is never tested and never feeds the detectors): the likelihood
    /// series gauges, the drift detectors — an alarm bumps the
    /// `quality.*_drift` counters — the re-cluster-rate EWMA, and the
    /// current model's weight-distribution stats. Counters and gauges
    /// only, never journal events, so the opt-in plane cannot perturb
    /// golden journal fixtures. `avg_ll` and `j` come from the test
    /// that decided the chunk's fate (the current-model test, or the
    /// winning multi-test); a dropping `avg_ll` is exactly what both
    /// detectors watch for.
    fn quality_after_test(&mut self, avg_ll: f64, j: f64, reclustered: bool) {
        let Some(q) = &mut self.quality else { return };
        if q.ph.update(avg_ll) {
            self.obs.counter(catalogue::QUALITY_PH_DRIFT, 1);
        }
        if q.ewma.update(avg_ll) {
            self.obs.counter(catalogue::QUALITY_EWMA_DRIFT, 1);
        }
        let indicator = if reclustered { 1.0 } else { 0.0 };
        q.recluster_ewma += CHURN_ALPHA * (indicator - q.recluster_ewma);
        self.obs.gauge(catalogue::QUALITY_AVG_LL, avg_ll);
        self.obs.gauge(catalogue::QUALITY_TEST_STAT, j);
        self.obs.gauge(catalogue::QUALITY_PH_STAT, q.ph.stat());
        self.obs.gauge(catalogue::QUALITY_EWMA_STAT, q.ewma.stat());
        self.obs.gauge(catalogue::QUALITY_RECLUSTER_EWMA, q.recluster_ewma);
        if let Some(m) = self.current_mixture() {
            let (w_min, w_max) = m.weight_extrema();
            self.obs.gauge(catalogue::QUALITY_WEIGHT_ENTROPY, m.weight_entropy());
            self.obs.gauge(catalogue::QUALITY_WEIGHT_MIN, w_min);
            self.obs.gauge(catalogue::QUALITY_WEIGHT_MAX, w_max);
        }
    }

    /// Algorithm 1 for one full chunk.
    fn process_chunk(&mut self, chunk: &Columns) -> Result<ChunkOutcome, GmmError> {
        // Clone the (Arc-backed) handle so the span's Drop does not hold a
        // borrow of `self` across the mutable calls below.
        let obs = self.obs.clone();
        let _span = obs.span(catalogue::SITE_CHUNK_NS);
        let this_chunk = self.chunk_index;
        self.chunk_index += 1;
        self.stats.chunks += 1;
        let m = chunk.len() as u64;
        self.obs.counter(catalogue::SITE_RECORDS, m);
        let root = self.trace_root(this_chunk);

        // The very first chunk is always clustered (Algorithm 1 line 2).
        let Some(current_id) = self.current else {
            let model = self.cluster_chunk(chunk, this_chunk, root)?;
            return Ok(ChunkOutcome::NewModel { model, tests: 0 });
        };

        // Test 1: the current model (Eq. 4, with the calibrated tolerance —
        // see DESIGN.md "fit-test calibration").
        let (epsilon, delta) = (self.config.chunk.epsilon, self.config.chunk.delta);
        let current = self.models.get(current_id).expect("current model exists");
        let p_free = free_parameters(self.config.k, self.config.dim, self.config.covariance);
        let avg_n = current
            .mixture
            .avg_log_likelihood_unless_below(chunk, &mut self.scratch, f64::NEG_INFINITY)
            .expect("no average is below -inf");
        let j = j_fit(avg_n, current.avg_ll);
        let tol = fit_tolerance(epsilon, delta, current.ll_std, chunk.len(), p_free);
        self.stats.tests += 1;
        self.obs.counter(catalogue::SITE_TESTS, 1);
        self.trace_child(root, catalogue::SITE_TEST, 0);
        if j <= tol {
            let entry = self.models.get_mut(current_id).expect("current model exists");
            entry.count += m;
            entry.last_active_chunk = this_chunk;
            self.stats.fit_current += 1;
            self.obs.counter(catalogue::SITE_FIT_CURRENT, 1);
            self.obs.event(&Event::ChunkTested {
                site: self.obs_site,
                chunk: this_chunk,
                avg_ll: avg_n,
                threshold: tol,
                verdict: Verdict::FitCurrent,
            });
            self.quality_after_test(avg_n, j, false);
            return Ok(ChunkOutcome::FitCurrent { j_fit: j });
        }

        // Tests 2..c_max: most recent other models in the list. Only the
        // verdict of a failing one is read, so its scoring stops at the
        // block after which the model's density ceiling has settled it
        // (DESIGN.md "A test that is decided stops"); test 1 above runs
        // to the end because its average is journaled and fed to the
        // drift detectors.
        let mut tests = 1usize;
        let mut cut = 0u64;
        let mut hit: Option<(ModelId, f64, f64, f64)> = None;
        for entry in self.models.recent_except(current_id) {
            if tests >= self.config.c_max {
                break;
            }
            tests += 1;
            let entry_tol = fit_tolerance(epsilon, delta, entry.ll_std, chunk.len(), p_free);
            let floor = fail_low_floor(entry.avg_ll, entry_tol);
            let Some(avg) =
                entry.mixture.avg_log_likelihood_unless_below(chunk, &mut self.scratch, floor)
            else {
                cut += 1;
                continue;
            };
            let j = j_fit(avg, entry.avg_ll);
            if j <= entry_tol {
                hit = Some((entry.id, j, avg, entry_tol));
                break;
            }
        }
        self.stats.tests += (tests - 1) as u64;
        self.obs.counter(catalogue::SITE_TESTS, (tests - 1) as u64);
        if cut > 0 {
            self.obs.counter(catalogue::SITE_TESTS_CUT, cut);
        }

        if let Some((model, j, hit_avg, hit_tol)) = hit {
            // Multi-test hit: switch the current model and queue a weight
            // update (Sec. 5.3 point 1).
            let entry = self.models.get_mut(model).expect("hit model exists");
            entry.count += m;
            entry.last_active_chunk = this_chunk;
            self.events.switch_to(model, this_chunk);
            self.current = Some(model);
            self.stats.switched += 1;
            self.obs.counter(catalogue::SITE_SWITCHED, 1);
            self.obs.event(&Event::ChunkTested {
                site: self.obs_site,
                chunk: this_chunk,
                avg_ll: hit_avg,
                threshold: hit_tol,
                verdict: Verdict::Switched,
            });
            let ctx = self.trace_child(root, catalogue::WIRE_UPDATE, 0);
            self.queue_event(SiteEvent::WeightUpdate { model, count_delta: m }, ctx);
            self.quality_after_test(hit_avg, j, false);
            return Ok(ChunkOutcome::SwitchedTo { model, j_fit: j, tests });
        }

        // Every test failed: cluster the chunk (Algorithm 1 lines 8-10).
        // The journaled values are from the current-model test — the one
        // the paper's single-test variant would have made.
        self.obs.event(&Event::ChunkTested {
            site: self.obs_site,
            chunk: this_chunk,
            avg_ll: avg_n,
            threshold: tol,
            verdict: Verdict::NewModel,
        });
        let model = self.cluster_chunk(chunk, this_chunk, root)?;
        // After the re-cluster, so the weight gauges describe the model
        // now serving as current; the detectors still see the *failed*
        // test's likelihood — the drop is the signal.
        self.quality_after_test(avg_n, j, true);
        Ok(ChunkOutcome::NewModel { model, tests })
    }

    /// Runs EM on a chunk, installs the new model as current, and queues the
    /// synopsis for the coordinator.
    fn cluster_chunk(
        &mut self,
        chunk: &Columns,
        this_chunk: u64,
        root: Option<(TraceId, SpanId)>,
    ) -> Result<ModelId, GmmError> {
        self.obs.event(&Event::Reclustered { site: self.obs_site, chunk: this_chunk });
        let fit = fit_em_recorded(chunk, &self.config.em_config(this_chunk), &self.obs)?;
        self.stats.clustered += 1;
        self.stats.em_iterations += fit.iterations as u64;
        self.obs.counter(catalogue::SITE_CLUSTERED, 1);
        self.trace_child(root, catalogue::SITE_EM, em_cost_us(fit.iterations as u64));
        let count = chunk.len() as u64;
        // AvgPr₀ is the founding chunk's average log likelihood, exactly as
        // in the paper; the optimism allowance lives in the tolerance.
        let avg_ll = fit.avg_log_likelihood;
        // σ̂ comes with a converged fit; only an iteration-cap exit, whose
        // returned mixture no E-step has scored, pays for the pass here.
        let ll_std = fit.ll_std.unwrap_or_else(|| log_likelihood_std(&fit.mixture, chunk));
        let id = self.models.insert(fit.mixture.clone(), avg_ll, ll_std, count, this_chunk);
        self.events.switch_to(id, this_chunk);
        self.current = Some(id);
        let ctx = self.trace_child(root, catalogue::WIRE_SYNOPSIS, 0);
        self.queue_event(
            SiteEvent::NewModel {
                model: id,
                mixture: fit.mixture,
                count,
                avg_ll,
            },
            ctx,
        );
        // Bounded model list: evict the least-recently-active non-current
        // model (its event-table spans survive; horizon queries simply skip
        // evicted ids).
        if let Some(bound) = self.config.max_models {
            while self.models.len() > bound {
                let Some(victim) = self.models.least_recently_active_except(id) else { break };
                let removed = self.models.remove(victim).expect("victim exists");
                self.queue_event(SiteEvent::Retired { model: victim, count: removed.count }, None);
            }
        }
        Ok(id)
    }

    /// Memory footprint per Theorem 3: the chunk buffer (`M · d` f64
    /// values, the bytes it allocates) plus `B · K(d² + d + 1)` model
    /// parameters plus the event table.
    pub fn memory_bytes(&self) -> usize {
        let buffer = 8 * self.chunk_size * self.config.dim;
        buffer + self.models.memory_bytes(self.config.covariance) + self.events.memory_bytes()
    }
}

/// An average below which `j_fit(avg, reference) > tol` for certain, in
/// floating point: the threshold `reference − tol`, lowered by more than the
/// rounding of that subtraction and of `j_fit`'s own can move the comparison
/// (each at most half an ulp of a value no larger than `|reference| + tol`).
fn fail_low_floor(reference: f64, tol: f64) -> f64 {
    reference - tol - 4.0 * f64::EPSILON * (reference.abs() + tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_gmm::{ChunkParams, Gaussian};
    use cludistream_rng::StdRng;

    /// Pushes every record, returning the outcomes of the chunks completed
    /// along the way.
    fn push_batch(site: &mut RemoteSite, records: Vec<Vector>) -> Vec<ChunkOutcome> {
        records.into_iter().filter_map(|x| site.push(x).unwrap()).collect()
    }

    /// Small-chunk config so tests run fast: 1-d, K=2, M computed from
    /// loose ε.
    fn test_config() -> Config {
        Config {
            dim: 1,
            k: 2,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            c_max: 4,
            seed: 7,
            ..Default::default()
        }
    }

    fn sampler(center: f64, seed: u64) -> (Mixture, StdRng) {
        let m = Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[center - 3.0]), 0.5).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[center + 3.0]), 0.5).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        (m, StdRng::seed_from_u64(seed))
    }

    fn feed_chunks(
        site: &mut RemoteSite,
        mixture: &Mixture,
        rng: &mut StdRng,
        chunks: usize,
    ) -> Vec<ChunkOutcome> {
        let n = site.chunk_size() * chunks;
        let data: Vec<Vector> = (0..n).map(|_| mixture.sample(rng)).collect();
        push_batch(site, data)
    }

    /// With `Config::quality` set, tested chunks leave the full gauge
    /// family in the registry, a stable stream never trips a drift
    /// counter, and a regime change far outside the model trips
    /// Page-Hinkley (the likelihood collapse is unmistakable) while the
    /// re-cluster EWMA rises off zero.
    #[test]
    fn quality_plane_emits_gauges_and_detects_drift() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        let registry = Arc::new(Registry::new());
        let config = Config { quality: true, ..test_config() };
        let mut site = RemoteSite::new(config).unwrap();
        site.set_observer(Obs::from_registry(Arc::clone(&registry)), 0);
        let (m, mut rng) = sampler(0.0, 5);
        feed_chunks(&mut site, &m, &mut rng, 6);
        assert_eq!(registry.counter_value("quality.ph_drift"), 0, "stable stream must not alarm");
        assert_eq!(registry.counter_value("quality.ewma_drift"), 0);
        for g in [
            "quality.avg_ll",
            "quality.test_stat",
            "quality.ph_stat",
            "quality.ewma_stat",
            "quality.recluster_ewma",
            "quality.weight_entropy",
            "quality.weight_min",
            "quality.weight_max",
        ] {
            assert!(registry.gauge_value(g).is_some(), "missing gauge {g}");
        }

        let (far, mut rng2) = sampler(60.0, 6);
        feed_chunks(&mut site, &far, &mut rng2, 3);
        assert!(
            registry.counter_value("quality.ph_drift") >= 1,
            "a 100-sigma likelihood collapse must alarm"
        );
        assert!(registry.gauge_value("quality.recluster_ewma").unwrap() > 0.0);
    }

    /// Without `Config::quality` the plane stays fully dark: not one
    /// quality series appears in the registry.
    #[test]
    fn quality_plane_off_emits_nothing() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        let registry = Arc::new(Registry::new());
        let mut site = RemoteSite::new(test_config()).unwrap();
        site.set_observer(Obs::from_registry(Arc::clone(&registry)), 0);
        let (m, mut rng) = sampler(0.0, 9);
        feed_chunks(&mut site, &m, &mut rng, 3);
        assert_eq!(registry.counter_value("quality.ph_drift"), 0);
        assert!(registry.gauge_value("quality.avg_ll").is_none());
        assert!(registry.gauge_value("quality.recluster_ewma").is_none());
    }

    /// 2-d, K = 2, ε = 0.02: chunks of 784 records, four kernel blocks, so
    /// a test has blocks to skip (`test_config`'s 53-record chunk is one).
    fn multi_block_config() -> Config {
        Config {
            dim: 2,
            k: 2,
            chunk: ChunkParams { epsilon: 0.02, delta: 0.01 },
            c_max: 4,
            seed: 7,
            ..Default::default()
        }
    }

    /// A two-blob regime around `(center, center)`.
    fn regime(center: f64) -> Mixture {
        Mixture::uniform(vec![
            Gaussian::spherical(Vector::from_slice(&[center - 3.0, center]), 0.5).unwrap(),
            Gaussian::spherical(Vector::from_slice(&[center + 3.0, center]), 0.5).unwrap(),
        ])
        .unwrap()
    }

    fn has_series(registry: &cludistream_obs::Registry, name: &str) -> bool {
        registry.counters().iter().any(|(n, _)| *n == name)
    }

    /// `site.tests_cut` counts the tests the density ceiling decided before
    /// their last block: none on a stationary stream (the series is never
    /// created), some — and at most the non-current-model tests — across
    /// regime changes with other models listed, while `site.tests` still
    /// counts every test started.
    #[test]
    fn tests_cut_counts_the_tests_the_ceiling_decided() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        let registry = Arc::new(Registry::new());
        let mut site = RemoteSite::new(multi_block_config()).unwrap();
        site.set_observer(Obs::from_registry(Arc::clone(&registry)), 0);
        let mut rng = StdRng::seed_from_u64(70);
        feed_chunks(&mut site, &regime(0.0), &mut rng, 5);
        assert_eq!(registry.counter_value("site.tests"), 4);
        assert!(!has_series(&registry, "site.tests_cut"), "a passing test scores every block");

        // Three new regimes: each chunk fails against the current model and
        // then against the 0, 1 and 2 other models listed by then.
        for center in [40.0, 80.0, 120.0] {
            feed_chunks(&mut site, &regime(center), &mut rng, 1);
        }
        let s = site.stats();
        assert_eq!(s.clustered, 4);
        assert_eq!(s.tests, 4 + 1 + 2 + 3, "a cut test is still a test");
        assert_eq!(registry.counter_value("site.tests"), s.tests);
        let cut = registry.counter_value("site.tests_cut");
        assert!(cut > 0, "a regime 40 apart is decided after one block of four");
        assert!(cut <= 1 + 2, "{cut} cut of 3 non-current-model tests");
    }

    /// What Algorithm 1 with the multi-test must decide for `chunk`, from
    /// the paper's definitions alone: the scalar Definition 1 average of
    /// every record, `J_fit` against `AvgPr₀`, the calibrated tolerance,
    /// the current model first and then the list most recent first.
    #[derive(Debug)]
    enum Expected {
        First,
        Fit { j: f64 },
        Switch { model: ModelId, j: f64, tests: usize },
        New { tests: usize },
    }

    fn expected_verdict(site: &RemoteSite, chunk: &[Vector]) -> Expected {
        let Some(current) = site.current_model() else { return Expected::First };
        let cfg = site.config();
        let p_free = free_parameters(cfg.k, cfg.dim, cfg.covariance);
        let fits = |entry: &crate::remote::model_list::ModelEntry| {
            let mut total = 0.0;
            for x in chunk {
                total += entry.mixture.log_pdf(x);
            }
            let j = j_fit(total / chunk.len() as f64, entry.avg_ll);
            let tol = fit_tolerance(
                cfg.chunk.epsilon,
                cfg.chunk.delta,
                entry.ll_std,
                chunk.len(),
                p_free,
            );
            (j <= tol).then_some(j)
        };
        if let Some(j) = fits(site.models().get(current).unwrap()) {
            return Expected::Fit { j };
        }
        let mut tests = 1;
        for entry in site.models().recent_except(current) {
            if tests >= cfg.c_max {
                break;
            }
            tests += 1;
            if let Some(j) = fits(entry) {
                return Expected::Switch { model: entry.id, j, tests };
            }
        }
        Expected::New { tests }
    }

    /// The permanent statement that the density ceiling changes what a
    /// failing test costs and nothing it decides: over recurring and new
    /// regimes, a chunk that fails *high*, a half-and-half chunk, every
    /// `c_max` and a bounded and an unbounded list, the site's outcomes,
    /// counters and queued events are the reference's.
    #[test]
    fn site_decides_what_the_scalar_reference_decides() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        use Chunk::{AtMode, Half, Regime};
        enum Chunk {
            /// Drawn from the regime around this center.
            Regime(f64),
            /// Every record at one mode of regime 0: fails *high* there.
            AtMode,
            /// Half regime 0, half regime 40.
            Half,
        }
        let stream = [
            Regime(0.0),
            Regime(0.0),
            Regime(40.0),
            Regime(0.0),
            Regime(80.0),
            Regime(40.0),
            Regime(120.0),
            Regime(0.0),
            AtMode,
            Regime(40.0),
            Half,
            Regime(160.0),
            Regime(120.0),
            Regime(120.0),
        ];
        for c_max in [1usize, 2, 4] {
            for max_models in [None, Some(2)] {
                let what = format!("c_max={c_max} max_models={max_models:?}");
                let registry = Arc::new(Registry::new());
                let mut site =
                    RemoteSite::new(Config { c_max, max_models, ..multi_block_config() }).unwrap();
                site.set_observer(Obs::from_registry(Arc::clone(&registry)), 0);
                let m = site.chunk_size();
                let mut rng = StdRng::seed_from_u64(71);
                let mut want = SiteStats::default();
                for (i, kind) in stream.iter().enumerate() {
                    let what = format!("{what} chunk {i}");
                    let chunk: Vec<Vector> = match *kind {
                        Regime(center) => {
                            let mix = regime(center);
                            (0..m).map(|_| mix.sample(&mut rng)).collect()
                        }
                        AtMode => vec![Vector::from_slice(&[-3.0, 0.0]); m],
                        Half => {
                            let (a, b) = (regime(0.0), regime(40.0));
                            let from = |r| if r < m / 2 { &a } else { &b };
                            (0..m).map(|r| from(r).sample(&mut rng)).collect()
                        }
                    };
                    let expected = expected_verdict(&site, &chunk);
                    let outcomes = push_batch(&mut site, chunk);
                    let events = site.drain_events();
                    assert_eq!(outcomes.len(), 1, "{what}");
                    want.records += m as u64;
                    want.chunks += 1;
                    match (outcomes[0], expected) {
                        (ChunkOutcome::FitCurrent { j_fit }, Expected::Fit { j }) => {
                            assert_eq!(j_fit.to_bits(), j.to_bits(), "{what}");
                            assert!(events.is_empty(), "{what}: {events:?}");
                            want.fit_current += 1;
                            want.tests += 1;
                        }
                        (
                            ChunkOutcome::SwitchedTo { model, j_fit, tests },
                            Expected::Switch { model: want_model, j, tests: want_tests },
                        ) => {
                            assert_eq!((model, tests), (want_model, want_tests), "{what}");
                            assert_eq!(j_fit.to_bits(), j.to_bits(), "{what}");
                            assert!(
                                matches!(
                                    events[..],
                                    [SiteEvent::WeightUpdate { model: to, count_delta }]
                                        if to == model && count_delta == m as u64
                                ),
                                "{what}: {events:?}"
                            );
                            want.switched += 1;
                            want.tests += tests as u64;
                        }
                        (ChunkOutcome::NewModel { model, tests }, Expected::First) => {
                            assert_eq!((model, tests), (ModelId(0), 0), "{what}");
                            want.clustered += 1;
                        }
                        (ChunkOutcome::NewModel { model, tests }, Expected::New { tests: t }) => {
                            assert_eq!(tests, t, "{what}");
                            assert!(
                                matches!(
                                    events[0],
                                    SiteEvent::NewModel { model: new, count, .. }
                                        if new == model && count == m as u64
                                ),
                                "{what}: {events:?}"
                            );
                            assert!(
                                events[1..].iter().all(|e| matches!(e, SiteEvent::Retired { .. })),
                                "{what}: {events:?}"
                            );
                            want.clustered += 1;
                            want.tests += tests as u64;
                        }
                        (got, expected) => panic!("{what}: site {got:?}, reference {expected:?}"),
                    }
                    if let Some(bound) = max_models {
                        assert!(site.models().len() <= bound, "{what}");
                    }
                }
                want.em_iterations = site.stats().em_iterations;
                assert_eq!(site.stats(), want, "{what}");
                assert_eq!(registry.counter_value("site.tests"), want.tests, "{what}");
                // The stream did exercise what it is here for.
                assert!(want.clustered >= 5 && want.fit_current >= 2, "{what}: {want:?}");
                if c_max > 1 {
                    assert!(want.switched >= 1, "{what}: {want:?}");
                    assert!(registry.counter_value("site.tests_cut") > 0, "{what}");
                } else {
                    assert!(!has_series(&registry, "site.tests_cut"), "{what}");
                }
            }
        }
    }

    #[test]
    fn every_average_below_the_floor_fails_the_fit_test() {
        use cludistream_rng::{check, Rng};
        check::cases("site.fail_low_floor", 2000, |rng| {
            // Magnitudes from 1e-6 to 1e6, either sign of AvgPr₀, and
            // tolerances from far smaller to far larger than it.
            let mag = |rng: &mut StdRng| 10f64.powf(rng.gen::<f64>() * 12.0 - 6.0);
            let reference = if rng.gen_bool(0.5) { mag(rng) } else { -mag(rng) };
            let tol = mag(rng);
            let floor = fail_low_floor(reference, tol);
            // The floats just below the floor, then further down.
            let mut avg = floor;
            for step in 0..64u32 {
                avg = if step < 8 {
                    f64::from_bits(if avg > 0.0 { avg.to_bits() - 1 } else { avg.to_bits() + 1 })
                } else {
                    avg - avg.abs() * 0.5 - tol
                };
                assert!(avg < floor);
                assert!(j_fit(avg, reference) > tol, "{avg} vs {reference} ± {tol}");
            }
        });
    }

    #[test]
    fn first_chunk_always_clusters() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (m, mut rng) = sampler(0.0, 1);
        let outcomes = feed_chunks(&mut site, &m, &mut rng, 1);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], ChunkOutcome::NewModel { tests: 0, .. }));
        assert_eq!(site.models().len(), 1);
        let events = site.drain_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], SiteEvent::NewModel { .. }));
    }

    #[test]
    fn stable_stream_fits_current_with_no_communication() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (m, mut rng) = sampler(0.0, 2);
        let outcomes = feed_chunks(&mut site, &m, &mut rng, 6);
        assert!(matches!(outcomes[0], ChunkOutcome::NewModel { .. }));
        for o in &outcomes[1..] {
            assert!(matches!(o, ChunkOutcome::FitCurrent { .. }), "outcome {o:?}");
        }
        // Only the initial synopsis was queued.
        assert_eq!(site.drain_events().len(), 1);
        assert_eq!(site.models().len(), 1);
        // Counter accumulated all six chunks.
        let total = site.models().entries()[0].count;
        assert_eq!(total, 6 * site.chunk_size() as u64);
    }

    #[test]
    fn distribution_change_creates_new_model() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (a, mut rng_a) = sampler(0.0, 23);
        let (b, mut rng_b) = sampler(50.0, 24);
        feed_chunks(&mut site, &a, &mut rng_a, 2);
        let outcomes = feed_chunks(&mut site, &b, &mut rng_b, 2);
        assert!(
            matches!(outcomes[0], ChunkOutcome::NewModel { .. }),
            "change not detected: {outcomes:?}"
        );
        assert!(matches!(outcomes[1], ChunkOutcome::FitCurrent { .. }));
        assert_eq!(site.models().len(), 2);
        assert_eq!(site.events().parts().0.len(), 1);
    }

    #[test]
    fn alternating_distributions_reuse_models_via_multitest() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (a, mut rng_a) = sampler(0.0, 5);
        let (b, mut rng_b) = sampler(50.0, 6);
        feed_chunks(&mut site, &a, &mut rng_a, 1); // new model A
        feed_chunks(&mut site, &b, &mut rng_b, 1); // new model B
        let back = feed_chunks(&mut site, &a, &mut rng_a, 1); // should re-fit A
        assert!(
            matches!(back[0], ChunkOutcome::SwitchedTo { .. }),
            "multi-test missed the old model: {back:?}"
        );
        assert_eq!(site.models().len(), 2, "no third model should be created");
        // The switch queued a weight update, not a full synopsis.
        let events = site.drain_events();
        let weight_updates =
            events.iter().filter(|e| matches!(e, SiteEvent::WeightUpdate { .. })).count();
        assert_eq!(weight_updates, 1);
    }

    #[test]
    fn c_max_one_disables_multitest() {
        let mut cfg = test_config();
        cfg.c_max = 1;
        let mut site = RemoteSite::new(cfg).unwrap();
        let (a, mut rng_a) = sampler(0.0, 7);
        let (b, mut rng_b) = sampler(50.0, 8);
        feed_chunks(&mut site, &a, &mut rng_a, 1);
        feed_chunks(&mut site, &b, &mut rng_b, 1);
        let back = feed_chunks(&mut site, &a, &mut rng_a, 1);
        // With only the current-model test allowed, the site cannot reuse A.
        assert!(matches!(back[0], ChunkOutcome::NewModel { tests: 1, .. }), "{back:?}");
        assert_eq!(site.models().len(), 3);
    }

    #[test]
    fn stats_track_processing() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (a, mut rng) = sampler(0.0, 9);
        feed_chunks(&mut site, &a, &mut rng, 3);
        let s = site.stats();
        assert_eq!(s.chunks, 3);
        assert_eq!(s.clustered, 1);
        assert_eq!(s.fit_current, 2);
        assert_eq!(s.records, 3 * site.chunk_size() as u64);
        assert!(s.em_iterations > 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        assert!(site.push(Vector::zeros(3)).is_err());
    }

    #[test]
    fn memory_grows_with_models_not_records() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (a, mut rng) = sampler(0.0, 30);
        feed_chunks(&mut site, &a, &mut rng, 1);
        let after_one = site.memory_bytes();
        feed_chunks(&mut site, &a, &mut rng, 5);
        let after_six = site.memory_bytes();
        // Same model the whole time → same memory (Theorem 3: independent of
        // stream length).
        assert_eq!(after_one, after_six);
        // A new distribution adds one model's worth.
        let (b, mut rng_b) = sampler(50.0, 11);
        feed_chunks(&mut site, &b, &mut rng_b, 1);
        assert!(site.memory_bytes() > after_six);
    }

    #[test]
    fn event_table_records_history() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (a, mut rng_a) = sampler(0.0, 12);
        let (b, mut rng_b) = sampler(50.0, 13);
        feed_chunks(&mut site, &a, &mut rng_a, 2);
        feed_chunks(&mut site, &b, &mut rng_b, 2);
        let entries = site.events().entries_at(site.chunk_index().saturating_sub(1));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].end_chunk - entries[0].start_chunk + 1, 2);
        assert_eq!(entries[1].end_chunk - entries[1].start_chunk + 1, 2);
    }

    #[test]
    fn bounded_model_list_evicts_least_recently_active() {
        let mut cfg = test_config();
        cfg.max_models = Some(2);
        let mut site = RemoteSite::new(cfg).unwrap();
        // Three distinct regimes, one chunk each: the third forces an
        // eviction of the first (least recently active).
        for (center, seed) in [(0.0, 60u64), (80.0, 61), (160.0, 62)] {
            let (m, mut rng) = sampler(center, seed);
            feed_chunks(&mut site, &m, &mut rng, 1);
        }
        assert_eq!(site.models().len(), 2, "bound not enforced");
        // The current (newest) model survives; a Retired event was queued.
        let events = site.drain_events();
        let retired: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, SiteEvent::Retired { .. }))
            .collect();
        assert_eq!(retired.len(), 1, "events {events:?}");
        if let SiteEvent::Retired { model, count } = retired[0] {
            assert_eq!(*model, ModelId(0), "first regime's model evicted");
            assert_eq!(*count, site.chunk_size() as u64);
        }
        // Horizon queries over spans of evicted models degrade gracefully.
        let recent = crate::windows::horizon_mixture(&site, 10).unwrap();
        assert!(recent.k() >= 1);
    }

    #[test]
    fn recently_reused_model_is_not_the_eviction_victim() {
        let mut cfg = test_config();
        cfg.max_models = Some(2);
        let mut site = RemoteSite::new(cfg).unwrap();
        let (a, mut rng_a) = sampler(0.0, 63);
        let (b, mut rng_b) = sampler(80.0, 64);
        feed_chunks(&mut site, &a, &mut rng_a, 1); // model 0
        feed_chunks(&mut site, &b, &mut rng_b, 1); // model 1
        feed_chunks(&mut site, &a, &mut rng_a, 1); // re-fit model 0 (multi-test)
        assert_eq!(site.models().len(), 2);
        // New regime: eviction must pick model 1 (b), not the just-reused 0.
        let (c, mut rng_c) = sampler(160.0, 65);
        feed_chunks(&mut site, &c, &mut rng_c, 1);
        let ids: Vec<ModelId> = site.models().entries().iter().map(|e| e.id).collect();
        assert!(ids.contains(&ModelId(0)), "recently used model evicted: {ids:?}");
        assert!(!ids.contains(&ModelId(1)), "stale model kept: {ids:?}");
    }

    #[test]
    fn partial_chunk_not_processed() {
        let mut site = RemoteSite::new(test_config()).unwrap();
        let (a, mut rng) = sampler(0.0, 14);
        let n = site.chunk_size() - 1;
        let data: Vec<Vector> = (0..n).map(|_| a.sample(&mut rng)).collect();
        let outcomes = push_batch(&mut site, data);
        assert!(outcomes.is_empty());
        assert_eq!(site.models().len(), 0);
        assert_eq!(site.current_model(), None);
        assert!(site.current_mixture().is_none());
    }
}
