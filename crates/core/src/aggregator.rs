//! The aggregator tier: a first-class intermediate node role that scales
//! the coordinator from tens of sites to swarms (paper Sec. 7's
//! multi-layer network, made a deployable runtime role).
//!
//! An [`AggregatorEngine`] speaks the *existing* synopsis protocol in both
//! directions. Downward it is indistinguishable from a coordinator: it
//! terminates the go-back-N reliable channel of a contiguous range of
//! child sites (or child aggregators) and folds their synopses into a
//! local [`Coordinator`] with the usual `M_merge`/`M_split` machinery.
//! Upward it is indistinguishable from a site: after absorbing a round of
//! child traffic it forwards *one* reduced `NewModel` carrying its global
//! mixture, re-using the coordinator's idempotent same-id replace
//! semantics (`(site, model)` = `(aggregator index, ModelId(0))`) so no
//! delete/re-add churn crosses the upper link. The parent therefore holds
//! O(aggregators) registry entries and O(models) group state no matter
//! how many sites sit below — the per-site event tables are sharded
//! behind the fan-in boundary, and each shard bounds its own history with
//! [`crate::coordinator::CoordinatorConfig::merge_log_cap`].
//!
//! The engine is transport-free: the discrete-event driver
//! ([`crate::driver`]), the socket runtime ([`crate::runtime`]), and the
//! swarm benchmark all drive the same state machine, so aggregation
//! behaves identically under simulation and over real sockets.

use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::engine::CoordinatorEngine;
use crate::error::CludiError;
use crate::protocol::Message;
use crate::remote::ModelId;
use cludistream_obs::{catalogue, Obs, Recorder};
use cludistream_wire::ByteBuf;

/// Microseconds between an aggregator going dirty and its upward flush,
/// in the simulated tree and over sockets: one upload batches a whole
/// fan-in's worth of child updates.
pub const SHARD_FLUSH_INTERVAL_US: u64 = 50_000;

/// `merge_log_cap` of an aggregator's local coordinator when its config
/// leaves it `None` (the root keeps `None`): shards are where O(history)
/// growth must stop.
pub const SHARD_MERGE_LOG_CAP: usize = 64;

/// Tuning knobs for one aggregator node.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// This node's site index at its parent (aggregators are numbered
    /// within their level; the parent sees this as a site id).
    pub index: u32,
    /// First child site index served by this node. Children carry their
    /// *global* indices on the wire; the engine maps
    /// `[child_base, child_base + children)` onto its inbox slots.
    pub child_base: u32,
    /// Number of children (sites or lower-level aggregators) fanning in.
    pub children: usize,
    /// The local coordinator's knobs. A `merge_log_cap` of `None` becomes
    /// [`SHARD_MERGE_LOG_CAP`] here (the root coordinator keeps `None`);
    /// an explicit `Some(n)` is kept.
    pub coordinator: CoordinatorConfig,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            index: 0,
            child_base: 0,
            children: 1,
            coordinator: CoordinatorConfig::default(),
        }
    }
}

/// The transport-independent aggregator state machine: a coordinator
/// engine over the child range plus the upload-on-change flush policy
/// toward the parent.
pub struct AggregatorEngine {
    engine: CoordinatorEngine,
    index: u32,
    /// The encoding of the last update forwarded upward (flush
    /// suppression state).
    last_upload: Option<ByteBuf>,
    /// `messages_applied` at the last flush attempt (dirty tracking).
    applied_at_last_flush: u64,
    /// Reduced updates actually sent upward.
    flushes: u64,
    /// Flush attempts suppressed because the summary had not materially
    /// changed.
    flushes_suppressed: u64,
    obs: Obs,
}

impl AggregatorEngine {
    /// Creates an aggregator for `config.children` children. Telemetry
    /// lands in `obs` under the same `coord.*` names a root coordinator
    /// uses, plus the `agg.*` flush series.
    pub fn new(config: AggregatorConfig, obs: Obs) -> Result<Self, CludiError> {
        if config.children < 1 {
            return Err(CludiError::InvalidConfig {
                name: "children",
                constraint: "children >= 1",
            });
        }
        let merge_log_cap = config.coordinator.merge_log_cap.or(Some(SHARD_MERGE_LOG_CAP));
        let mut coordinator =
            Coordinator::new(CoordinatorConfig { merge_log_cap, ..config.coordinator })?;
        coordinator.set_observer(obs.clone());
        let mut engine = CoordinatorEngine::new(coordinator, config.children, obs.clone());
        engine.site_base = config.child_base;
        Ok(AggregatorEngine {
            engine,
            index: config.index,
            last_upload: None,
            applied_at_last_flush: 0,
            flushes: 0,
            flushes_suppressed: 0,
            obs,
        })
    }

    /// This node's site index at its parent.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Processes one raw child frame exactly as a root coordinator would:
    /// bare frames apply directly, sequenced frames go through the child's
    /// go-back-N inbox. Returns the encoded cumulative-ACK frame to send
    /// back when the frame was sequenced.
    pub fn on_wire(&mut self, payload: &ByteBuf) -> Option<ByteBuf> {
        self.engine.on_wire(payload)
    }

    /// Applies one already-decoded child message (the benchmark and test
    /// path; transports use [`AggregatorEngine::on_wire`]).
    pub fn apply(&mut self, message: &Message) {
        self.engine.apply(message);
    }

    /// True when child traffic arrived since the last flush attempt.
    pub(crate) fn dirty(&self) -> bool {
        self.engine.coordinator.messages_applied() > self.applied_at_last_flush
    }

    /// The reduced upward update, when one is due: the local global
    /// mixture as a single `NewModel` under this aggregator's fixed
    /// `(index, ModelId(0))` identity, total child record mass as its
    /// count. Returns `None` while clean, before any child reported, or
    /// when the update's encoding is the last upload's byte for byte
    /// (paper Sec. 7: an internal node uploads "if its locally-observed
    /// Gaussian mixture model changes"). Any moved bit of a weight, mean
    /// or covariance, or of the count, uploads, so the parent holds the
    /// last summary this node computed. The parent's idempotent same-id
    /// replace makes re-sending the whole summary safe and delete-free.
    pub fn flush(&mut self) -> Option<Message> {
        if !self.dirty() {
            return None;
        }
        self.applied_at_last_flush = self.engine.coordinator.messages_applied();
        let summary = self.engine.coordinator.global_mixture().ok()?;
        let count = (self.engine.coordinator.total_weight().round() as u64).max(1);
        let update = Message::NewModel {
            site: self.index,
            model: ModelId(0),
            count,
            // The parent never tests chunks against this summary; the
            // founding likelihood is a site-side concept.
            avg_ll: 0.0,
            mixture: summary,
        };
        let bytes = update.encode(self.engine.coordinator.covariance());
        if self.last_upload.as_ref() == Some(&bytes) {
            self.flushes_suppressed += 1;
            self.obs.counter(catalogue::AGG_FLUSHES_SUPPRESSED, 1);
            return None;
        }
        self.flushes += 1;
        self.obs.counter(catalogue::AGG_FLUSHES, 1);
        self.last_upload = Some(bytes);
        Some(update)
    }

    /// Reduced updates sent upward so far.
    pub(crate) fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Flush attempts suppressed as unchanged.
    pub(crate) fn flushes_suppressed(&self) -> u64 {
        self.flushes_suppressed
    }

    /// Messages applied by the local coordinator (child-side traffic).
    pub(crate) fn messages_applied(&self) -> u64 {
        self.engine.coordinator.messages_applied()
    }

    /// Local group count (size of the reduced upward summary).
    pub(crate) fn group_count(&self) -> usize {
        self.engine.coordinator.group_count()
    }

    /// Rows of shard bookkeeping (registry + retained merge log).
    pub(crate) fn event_table_entries(&self) -> usize {
        self.engine.coordinator.event_table_entries()
    }

    /// The local coordinator (inspection; experiments).
    pub(crate) fn coordinator(&self) -> &Coordinator {
        &self.engine.coordinator
    }

    /// Engine-level accounting: decode errors seen on child frames.
    pub fn decode_errors(&self) -> u64 {
        self.engine.decode_errors
    }

    /// ACK frames sent downward to children.
    pub(crate) fn ack_messages(&self) -> u64 {
        self.engine.ack_messages
    }

    /// Bytes of ACK frames sent downward.
    pub(crate) fn ack_bytes(&self) -> u64 {
        self.engine.ack_bytes
    }

    /// Duplicate or stale child frames discarded by the go-back-N inboxes.
    pub(crate) fn duplicates_discarded(&self) -> u64 {
        self.engine.inboxes.iter().map(crate::protocol::ReliableInbox::duplicates).sum()
    }

    /// Cumulative ACK position of child slot `local` (`0..children`), for
    /// the socket runtime's handshake: a resuming child resyncs go-back-N
    /// from here. Zero for an out-of-range slot.
    pub(crate) fn child_cumulative(&self, local: usize) -> u64 {
        self.engine.inboxes.get(local).map_or(0, crate::protocol::ReliableInbox::cumulative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Frame;
    use cludistream_gmm::{CovarianceType, Gaussian, Mixture};
    use cludistream_linalg::Vector;

    fn mix(centers: &[f64]) -> Mixture {
        Mixture::uniform(
            centers
                .iter()
                .map(|&c| Gaussian::spherical(Vector::from_slice(&[c, 0.0]), 1.0).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn new_model(site: u32, model: u64, centers: &[f64], count: u64) -> Message {
        Message::NewModel {
            site,
            model: ModelId(model),
            count,
            avg_ll: -1.0,
            mixture: mix(centers),
        }
    }

    fn agg(index: u32, child_base: u32, children: usize) -> AggregatorEngine {
        AggregatorEngine::new(
            AggregatorConfig { index, child_base, children, ..Default::default() },
            Obs::noop(),
        )
        .unwrap()
    }

    #[test]
    fn a_covariance_only_move_uploads() {
        let mut a = agg(0, 0, 1);
        a.apply(&new_model(0, 0, &[0.0], 100));
        assert!(a.flush().is_some());
        // The same `(site, model)`, mean and weight, variance 4 not 1.
        let wider = Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 4.0).unwrap();
        a.apply(&Message::NewModel {
            site: 0,
            model: ModelId(0),
            count: 100,
            avg_ll: -1.0,
            mixture: Mixture::single(wider),
        });
        let Some(Message::NewModel { mixture, .. }) = a.flush() else {
            panic!("a moved covariance must upload");
        };
        assert_eq!(mixture.components()[0].cov()[(0, 0)], 4.0);
    }

    #[test]
    fn a_weight_update_to_a_single_component_shard_uploads() {
        // One model of one component: its weight in the summary stays 1,
        // but the upload's count is the shard's record mass.
        let mut a = agg(0, 0, 1);
        a.apply(&new_model(0, 0, &[0.0], 100));
        assert!(a.flush().is_some());
        a.apply(&Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 50 });
        let Some(Message::NewModel { count, .. }) = a.flush() else {
            panic!("a new count must upload");
        };
        assert_eq!(count, 150);
        assert_eq!(a.flushes_suppressed(), 0);
    }

    #[test]
    fn shard_caps_its_merge_log_by_default() {
        // Far-apart single-component models past `max_groups`: every
        // child after the eighth forces one merge.
        let children = SHARD_MERGE_LOG_CAP + 16;
        let config = AggregatorConfig {
            children,
            coordinator: CoordinatorConfig::default(),
            ..Default::default()
        };
        let mut a = AggregatorEngine::new(config, Obs::noop()).unwrap();
        for child in 0..children as u32 {
            a.apply(&new_model(child, 0, &[f64::from(child) * 50.0], 100));
        }
        let coordinator = a.coordinator();
        assert_eq!(coordinator.merge_log().len(), SHARD_MERGE_LOG_CAP);
        assert!(coordinator.merges_compacted() > 0, "more merges than the cap happened");
    }

    #[test]
    fn rejects_zero_children() {
        let bad = AggregatorConfig { children: 0, ..Default::default() };
        assert!(AggregatorEngine::new(bad, Obs::noop()).is_err());
    }

    #[test]
    fn flush_reduces_children_to_one_message() {
        let mut a = agg(3, 10, 4);
        assert!(a.flush().is_none(), "clean engine must not flush");
        for child in 10..14 {
            a.apply(&new_model(child, 0, &[0.0, 40.0], 100));
        }
        assert!(a.dirty());
        let up = a.flush().expect("dirty engine flushes");
        let Message::NewModel { site, model, count, mixture, .. } = up else {
            panic!("flush must be a NewModel, got {up:?}");
        };
        assert_eq!(site, 3, "upward identity is the aggregator index");
        assert_eq!(model, ModelId(0), "fixed id enables same-id replace");
        assert_eq!(count, 400, "child record mass conserved");
        assert_eq!(mixture.k(), a.group_count());
        assert!(!a.dirty(), "flush clears the dirty mark");
        assert!(a.flush().is_none(), "no double flush while clean");
    }

    #[test]
    fn unchanged_summary_is_suppressed_and_resent_after_change() {
        let mut a = agg(0, 0, 2);
        a.apply(&new_model(0, 0, &[0.0], 100));
        assert!(a.flush().is_some());
        // A duplicate of the same synopsis: same-id replace leaves the
        // summary bit-identical, so the flush is suppressed even at ε=0.
        a.apply(&new_model(0, 0, &[0.0], 100));
        assert!(a.dirty());
        assert!(a.flush().is_none());
        assert_eq!(a.flushes_suppressed(), 1);
        // Real movement flushes again.
        a.apply(&new_model(1, 0, &[80.0], 100));
        assert!(a.flush().is_some());
        assert_eq!(a.flushes(), 2);
    }

    #[test]
    fn sequenced_child_frames_use_global_indices() {
        let mut a = agg(0, 8, 2);
        let frame = Frame::Data {
            seq: 0,
            message: new_model(9, 0, &[0.0], 50),
            ctx: None,
        };
        let ack = a.on_wire(&frame.encode(CovarianceType::Full));
        assert!(ack.is_some(), "in-range child gets an ACK");
        assert_eq!(a.messages_applied(), 1);
        // Below and above the child range: rejected, no state change.
        for bad_site in [7u32, 10] {
            let frame = Frame::Data {
                seq: 0,
                message: new_model(bad_site, 0, &[0.0], 50),
                ctx: None,
            };
            assert!(a.on_wire(&frame.encode(CovarianceType::Full)).is_none());
        }
        assert_eq!(a.decode_errors(), 2);
        assert_eq!(a.messages_applied(), 1);
    }

    #[test]
    fn cascaded_aggregators_conserve_mass_to_the_root() {
        // 4 sites → 2 aggregators → 1 root: the shape of the 2-level tree.
        let mut lo = agg(0, 0, 2);
        let mut hi = agg(1, 2, 2);
        let mut root = Coordinator::new(CoordinatorConfig::default()).unwrap();
        for (child, center) in [(0u32, 0.0), (1, 0.5)] {
            lo.apply(&new_model(child, 0, &[center], 100));
        }
        for (child, center) in [(2u32, 80.0), (3, 80.5)] {
            hi.apply(&new_model(child, 0, &[center], 100));
        }
        for a in [&mut lo, &mut hi] {
            root.apply(&a.flush().expect("flush")).unwrap();
        }
        // Root sees exactly one registry entry per aggregator, total mass
        // equal to the site mass, and both regions.
        assert_eq!(root.known_models(), 2);
        assert!((root.total_weight() - 400.0).abs() < 1e-6);
        assert_eq!(root.group_count(), 2);
    }
}
