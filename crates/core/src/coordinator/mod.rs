//! Coordinator processing (paper Sec. 5.2): maintaining a global hierarchy
//! of Gaussian mixtures over the models reported by all remote sites, with
//! Mahalanobis-based merge / split / re-merge and optional downhill-simplex
//! refinement of merged components.

mod group;
mod merge;
mod simplex;
mod split;

pub use group::{ComponentKey, Group, Member};
pub use merge::{j_merge, m_merge, merge_criteria_table, normalize_column, MergeRefiner};
pub use split::{m_remerge, m_split};

pub(crate) use merge::MergeScratch;
use split::should_split;

use merge::m_merge_of_dist;

use crate::protocol::Message;
use crate::remote::ModelId;
use cludistream_gmm::{CovarianceType, Gaussian, GmmError, Mixture};
use cludistream_obs::{catalogue, simplex_cost_us, Event, Obs, Recorder, SpanRecord, SpanScope};
use std::collections::HashMap;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Consolidate the hierarchy down to at most this many groups — the
    /// paper's answer to "r·K components ... is not scalable" and "local
    /// maxima pose a problem if there are too many components".
    pub max_groups: usize,
    /// A new component joins its best group only when its `M_split` against
    /// that group's aggregate is at most `join_distance × d`; otherwise it
    /// founds a new group. (Squared Mahalanobis distances scale with d, so
    /// the threshold does too.)
    pub join_distance: f64,
    /// Refine merged groups with the downhill simplex (Sec. 5.2.1). Off by
    /// default in unit tests; the experiments enable it.
    pub refine_merges: bool,
    /// The refiner used when `refine_merges` is set.
    pub refiner: MergeRefiner,
    /// Covariance representation for synopsis size accounting.
    pub covariance: CovarianceType,
    /// Emit model-quality gauges (`quality.weight_entropy`,
    /// `quality.weight_min`/`weight_max` over the global mixture, and the
    /// `quality.churn_ewma` merge/split rate) after every applied
    /// message. Off by default: the gauges cost a `global_mixture()`
    /// rebuild per message, and the golden journal fixtures are recorded
    /// without them (gauges are never journaled, but the flag keeps the
    /// write path cost-identical too).
    pub quality: bool,
    /// Bound on the retained merge history ([`Coordinator::merge_log`]).
    /// The log is pure lineage — crash resync replays site synopses (the
    /// idempotent `NewModel` replace), never the log — so trimming it is
    /// correctness-free, but an unbounded log makes coordinator memory
    /// O(history) on long streams. `None` (the default) keeps everything;
    /// `Some(n)` drops the oldest records past `n`, counting them in the
    /// `coord.merges_compacted` counter. Aggregator tiers set this so the
    /// root stays O(models).
    pub merge_log_cap: Option<usize>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            max_groups: 8,
            join_distance: 4.0,
            refine_merges: false,
            refiner: MergeRefiner::default(),
            covariance: CovarianceType::Full,
            quality: false,
            merge_log_cap: None,
        }
    }
}

/// One entry of the merge history: which group absorbed which, and when
/// (by message sequence). Together with each group's members this records
/// the hierarchy the paper's coordinator maintains — the lineage of every
/// global component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRecord {
    /// Message sequence number at which the merge happened.
    pub at_message: u64,
    /// Surviving group id.
    pub into_group: u64,
    /// Absorbed group id (no longer exists).
    pub absorbed_group: u64,
    /// Members moved into the survivor.
    pub members_moved: usize,
}

/// Bookkeeping for one site model the coordinator has heard about.
#[derive(Debug, Clone)]
struct ModelInfo {
    /// Last known record count.
    count: u64,
    /// The model→member index: where component `c` of the model lives, as
    /// `(group id, sequence number in that group)`. Kept current by every
    /// operation that places or moves a member, so an update to the model
    /// visits its own components instead of every member of every group.
    homes: Vec<Home>,
}

/// `(group id, member sequence number)` of one component.
type Home = (u64, u64);

/// The members `homes` points at, as `(slot in groups, sequence number)`
/// in slot order and join order within a slot — the order in which a scan
/// over every member of every group would meet them.
fn locate(groups: &[Group], homes: &[Home]) -> Vec<(usize, u64)> {
    let mut at: Vec<(usize, u64)> = homes
        .iter()
        .filter_map(|&(id, seq)| Some((groups.iter().position(|g| g.id == id)?, seq)))
        .collect();
    at.sort_unstable();
    at
}

/// Splits what [`locate`] returned into one `(slot, sequence numbers)` run
/// per group.
fn by_group(
    located: &[(usize, u64)],
) -> impl Iterator<Item = (usize, impl Iterator<Item = u64> + '_)> {
    located.chunk_by(|a, b| a.0 == b.0).map(|run| (run[0].0, run.iter().map(|&(_, seq)| seq)))
}

/// `M_merge` between the aggregates of the groups in slots `lo < hi`.
fn pair_score(groups: &[Group], lo: usize, hi: usize) -> f64 {
    m_merge(groups[lo].aggregate(), groups[hi].aggregate())
}

/// An upper bound on [`pair_score`] from the groups' cached bound factors,
/// in O(d); the largest score there is when either aggregate is
/// uncertified.
fn pair_cap(groups: &[Group], lo: usize, hi: usize) -> f64 {
    let (a, b) = (&groups[lo], &groups[hi]);
    m_merge_of_dist(a.aggregate().dist_lower_bound(a.dist_factor(), b.aggregate(), b.dist_factor()))
}

/// The pair `i < j` of `0..n` with the largest `score(i, j)`: pairs in
/// slot order, strict `>`, so the first maximum wins and a NaN score is
/// never picked over an earlier one. The full re-scan debug builds check
/// every pick of [`Coordinator::consolidate`] against.
fn best_pair(n: usize, score: impl Fn(usize, usize) -> f64) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..n {
        for j in (i + 1)..n {
            let m = score(i, j);
            if best.is_none_or(|(_, _, bm)| m > bm) {
                best = Some((i, j, m));
            }
        }
    }
    best
}

/// The CluDistream coordinator.
///
/// Applies [`Message`]s from remote sites, maintains the two-level group
/// hierarchy (root → groups → member components), and exposes the global
/// mixture over the union of all streams.
#[derive(Debug)]
pub struct Coordinator {
    config: CoordinatorConfig,
    groups: Vec<Group>,
    next_group_id: u64,
    registry: HashMap<(u32, ModelId), ModelInfo>,
    /// Messages applied (for reporting).
    messages_applied: u64,
    /// Merge history (the hierarchy record), oldest first. Append-only
    /// unless [`CoordinatorConfig::merge_log_cap`] trims the front.
    merge_log: Vec<MergeRecord>,
    /// Merge records dropped by compaction (so `merges_compacted +
    /// merge_log.len()` is the lifetime merge count).
    merges_compacted: u64,
    /// Reusable refinement buffers (satellite of the swarm benchmark: one
    /// allocation for the life of the coordinator instead of per merge).
    merge_scratch: MergeScratch,
    /// Lifetime merge + split count (quality plane's churn input).
    churn_events: u64,
    /// EWMA of churn events per applied message (quality plane gauge).
    churn_ewma: f64,
    /// Telemetry handle (no-op unless [`Coordinator::set_observer`] ran).
    obs: Obs,
    /// Trace scope of the message currently being applied, when tracing;
    /// child spans (simplex refinements) are recorded under it.
    trace_scope: Option<SpanScope>,
}

impl Coordinator {
    /// Creates an empty coordinator.
    pub fn new(config: CoordinatorConfig) -> Result<Self, crate::CludiError> {
        if config.max_groups < 1 {
            return Err(crate::CludiError::InvalidConfig {
                name: "max_groups",
                constraint: "max_groups >= 1",
            });
        }
        if !(config.join_distance > 0.0) {
            return Err(crate::CludiError::InvalidConfig {
                name: "join_distance",
                constraint: "join_distance > 0",
            });
        }
        Ok(Coordinator {
            config,
            groups: Vec::new(),
            next_group_id: 0,
            registry: HashMap::new(),
            messages_applied: 0,
            merge_log: Vec::new(),
            merges_compacted: 0,
            merge_scratch: MergeScratch::default(),
            churn_events: 0,
            churn_ewma: 0.0,
            obs: Obs::noop(),
            trace_scope: None,
        })
    }

    /// Attaches a telemetry observer. Merge / split / re-merge decisions
    /// and simplex refinements are journaled; `coord.*` counters and the
    /// `coord.groups` gauge land in the registry.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Sets (or clears) the trace scope for the message being applied, so
    /// coordinator-side work records child spans under the right parent.
    /// The driver brackets each `apply` call with this.
    pub(crate) fn set_trace_scope(&mut self, scope: Option<SpanScope>) {
        self.trace_scope = scope;
    }

    /// The retained merge history: group-absorbs-group events, oldest
    /// first. Complete unless [`CoordinatorConfig::merge_log_cap`] trimmed
    /// the front (see [`Coordinator::merges_compacted`]).
    pub fn merge_log(&self) -> &[MergeRecord] {
        &self.merge_log
    }

    /// Merge records dropped by log compaction (0 without a cap).
    pub fn merges_compacted(&self) -> u64 {
        self.merges_compacted
    }

    /// Rows of coordinator bookkeeping that grow with input rather than
    /// with the model count: the model registry plus the retained merge
    /// log. This is what the `coord.event_table_entries` gauge reports and
    /// what [`CoordinatorConfig::merge_log_cap`] bounds — the coordinator's
    /// analogue of a site's event table.
    pub fn event_table_entries(&self) -> usize {
        self.registry.len() + self.merge_log.len()
    }

    /// Number of groups (global mixture components).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total member components across groups.
    pub fn component_count(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// Total record weight across all groups.
    pub fn total_weight(&self) -> f64 {
        self.groups.iter().map(|g| g.weight()).sum()
    }

    /// Messages applied so far.
    pub fn messages_applied(&self) -> u64 {
        self.messages_applied
    }

    /// Borrow the groups (for inspection and experiments).
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Rebuilds every group's aggregate from its members
    /// (`Group::recompute`): the exact reference the running aggregates
    /// are tested against. Drops refined representatives.
    pub fn recompute_groups(&mut self) {
        self.groups.iter_mut().for_each(Group::recompute);
    }

    /// Validation hook for tests: every group has a current aggregate, and
    /// running statistics that equal a fresh fold of its members to 1e-9
    /// relative (`Group::check_moments`); the model→member index and the
    /// groups' members are one to one — each index entry names a member
    /// carrying exactly that key, and there are as many members as entries
    /// — and record mass is conserved: the total weight equals the summed
    /// counts of the live site models to 1e-9 relative.
    pub fn check(&self) -> Result<(), GmmError> {
        self.groups.iter().try_for_each(Group::check)?;
        self.groups.iter().try_for_each(Group::check_moments)?;
        let dangling = GmmError::InvalidParameter {
            name: "registry",
            constraint: "every index entry names its member and every member has one",
        };
        let mut entries = 0;
        for (&(site, model), info) in &self.registry {
            for (component, &(id, seq)) in info.homes.iter().enumerate() {
                let member = self.groups.iter().find(|g| g.id == id).and_then(|g| g.member(seq));
                if member.map(|m| m.key) != Some(ComponentKey { site, model, component }) {
                    return Err(dangling);
                }
                entries += 1;
            }
        }
        if entries != self.component_count() {
            return Err(dangling);
        }
        let counted: f64 = self.registry.values().map(|info| info.count as f64).sum();
        if (self.total_weight() - counted).abs() > 1e-9 * counted.max(1.0) {
            return Err(GmmError::InvalidParameter {
                name: "total_weight",
                constraint: "record mass equals the summed counts of the live site models",
            });
        }
        Ok(())
    }

    /// Number of distinct site models known.
    pub fn known_models(&self) -> usize {
        self.registry.len()
    }

    /// Covariance representation used for synopsis accounting and the
    /// snapshot wire format.
    pub fn covariance(&self) -> CovarianceType {
        self.config.covariance
    }

    /// Applies one protocol message.
    pub fn apply(&mut self, message: &Message) -> Result<(), GmmError> {
        self.messages_applied += 1;
        self.obs.counter(catalogue::COORD_MESSAGES, 1);
        let churn_before = self.churn_events;
        let result = match message {
            Message::NewModel { site, model, count, mixture, .. } => {
                // The handshake checks the dimension a peer declares, not
                // the one its synopses have; the criteria below assume it.
                // Refused before the replace, so a hostile duplicate does
                // not delete the model it names.
                let held = self.groups.first().map(|g| g.aggregate().dim());
                if let Some(expected) = held.filter(|&held| held != mixture.dim()) {
                    return Err(GmmError::DimensionMismatch { expected, got: mixture.dim() });
                }
                // Members are inserted at `w · count` and rescaled by
                // `count / old` on updates, so a model founded on no
                // records would hold no mass whatever later updates add.
                if *count == 0 {
                    return Err(GmmError::InvalidParameter {
                        name: "count",
                        constraint: "a new model summarises at least one record",
                    });
                }
                // Idempotent under retransmission: a duplicate NewModel for
                // a known (site, model) replaces the previous components
                // instead of double-counting them.
                if let Some(old) = self.registry.remove(&(*site, *model)) {
                    self.detach(&old.homes);
                }
                let homes = mixture
                    .components()
                    .iter()
                    .zip(mixture.weights())
                    .enumerate()
                    .map(|(idx, (g, &w))| {
                        let key = ComponentKey { site: *site, model: *model, component: idx };
                        self.insert_component(key, g.clone(), w * *count as f64)
                    })
                    .collect();
                self.registry.insert((*site, *model), ModelInfo { count: *count, homes });
                self.consolidate();
                Ok(())
            }
            Message::WeightUpdate { site, model, count_delta } => {
                let Some(info) = self.registry.get_mut(&(*site, *model)) else {
                    return Err(GmmError::InvalidParameter {
                        name: "model",
                        constraint: "weight update for a known model",
                    });
                };
                let old = info.count.max(1);
                info.count = info.count.saturating_add(*count_delta);
                let scale = info.count as f64 / old as f64;
                self.on_model_update(*site, *model, scale);
                Ok(())
            }
            Message::Delete { site, model, count_delta } => {
                let Some(info) = self.registry.get_mut(&(*site, *model)) else {
                    return Err(GmmError::InvalidParameter {
                        name: "model",
                        constraint: "deletion for a known model",
                    });
                };
                let old = info.count;
                let new = old.saturating_sub(*count_delta);
                info.count = new;
                if new == 0 {
                    // Weight hit zero: drop the model entirely (Sec. 7).
                    if let Some(gone) = self.registry.remove(&(*site, *model)) {
                        self.detach(&gone.homes);
                    }
                } else {
                    self.on_model_update(*site, *model, new as f64 / old.max(1) as f64);
                }
                Ok(())
            }
        };
        if let Some(cap) = self.config.merge_log_cap {
            if self.merge_log.len() > cap {
                let dropped = self.merge_log.len() - cap;
                self.merge_log.drain(..dropped);
                self.merges_compacted += dropped as u64;
                self.obs.counter(catalogue::COORD_MERGES_COMPACTED, dropped as u64);
            }
        }
        self.obs.gauge(catalogue::COORD_GROUPS, self.groups.len() as f64);
        self.obs.gauge(catalogue::COORD_EVENT_TABLE_ENTRIES, self.event_table_entries() as f64);
        if self.config.quality {
            // Churn per applied message, smoothed: a sustained rise means
            // the hierarchy keeps reshuffling (streams drifting apart or
            // max_groups set too tight).
            const CHURN_ALPHA: f64 = 0.2;
            let churn = (self.churn_events - churn_before) as f64;
            self.churn_ewma += CHURN_ALPHA * (churn - self.churn_ewma);
            self.obs.gauge(catalogue::QUALITY_CHURN_EWMA, self.churn_ewma);
            if let Ok(m) = self.global_mixture() {
                let (w_min, w_max) = m.weight_extrema();
                self.obs.gauge(catalogue::QUALITY_WEIGHT_ENTROPY, m.weight_entropy());
                self.obs.gauge(catalogue::QUALITY_WEIGHT_MIN, w_min);
                self.obs.gauge(catalogue::QUALITY_WEIGHT_MAX, w_max);
            }
        }
        // A group whose statistics yield no Gaussian (non-finite synopsis
        // values) keeps serving its previous aggregate; say so.
        result.and_then(|()| self.groups.iter().try_for_each(Group::check))
    }

    /// The global mixture: one component per group (refined representative
    /// when available), weighted by group record mass.
    pub fn global_mixture(&self) -> Result<Mixture, GmmError> {
        let comps: Vec<Gaussian> =
            self.groups.iter().map(|g| g.representative().clone()).collect();
        let weights: Vec<f64> = self.groups.iter().map(|g| g.weight().max(1e-12)).collect();
        Mixture::new(comps, weights)
    }

    /// Removes the members `homes` points at and drops the groups that
    /// leaves empty.
    fn detach(&mut self, homes: &[Home]) {
        for (slot, seqs) in by_group(&locate(&self.groups, homes)) {
            let _ = self.groups[slot].remove(seqs);
        }
        self.groups.retain(|g| !g.is_empty());
    }

    /// Records in the model→member index that component `key` now lives
    /// at `home`.
    fn rehome(registry: &mut HashMap<(u32, ModelId), ModelInfo>, key: ComponentKey, home: Home) {
        if let Some(slot) = registry
            .get_mut(&(key.site, key.model))
            .and_then(|info| info.homes.get_mut(key.component))
        {
            *slot = home;
        }
    }

    /// Inserts a component under the re-merge rule: join the group with the
    /// largest `M_remerge` when close enough, found a new group otherwise.
    /// Returns where the component landed.
    ///
    /// The pick is the first minimum of `M_split` in slot order under
    /// `total_cmp`, but a group whose certified lower bound
    /// ([`Gaussian::dist_lower_bound`]) already exceeds the join limit or
    /// the best distance so far is not scored: its distance, which is at
    /// least the bound and then finite, could neither be joined nor be the
    /// first minimum. An uncertified group's bound is `−∞`, so it is scored.
    fn insert_component(&mut self, key: ComponentKey, gaussian: Gaussian, weight: f64) -> Home {
        let limit = self.config.join_distance * gaussian.dim() as f64;
        let factor = gaussian.dist_bound_factor();
        let mut best: Option<(usize, f64)> = None;
        for (i, g) in self.groups.iter().enumerate() {
            let cap = best.map_or(limit, |(_, dist)| dist.min(limit));
            if gaussian.dist_lower_bound(factor, g.aggregate(), g.dist_factor()) > cap {
                continue;
            }
            let dist = m_split(&gaussian, g.aggregate());
            if best.is_none_or(|(_, b)| dist.total_cmp(&b).is_lt()) {
                best = Some((i, dist));
            }
        }
        let member = Member::new(key, gaussian, weight);
        match best {
            Some((idx, dist)) if dist <= limit => {
                let group = &mut self.groups[idx];
                (group.id, group.push(member))
            }
            _ => {
                let id = self.next_group_id;
                self.next_group_id += 1;
                // Singleton: the member IS the aggregate, distance 0, and
                // keeps the infinite M_remerge it was made with.
                self.groups.push(Group::new(id, member));
                (id, 0)
            }
        }
    }

    /// Algorithm 2 (`OnUpdates`): the record count of a known model changed
    /// by the factor `scale`. Reweights the model's components — only the
    /// groups holding them change, the rest keep their refined
    /// representatives — then re-examines their placement: drifted
    /// components split from their fathers and re-merge into their best
    /// group.
    fn on_model_update(&mut self, site: u32, model: ModelId, scale: f64) {
        let homes = self.registry.get(&(site, model)).map_or(&[][..], |info| &info.homes);
        let located = locate(&self.groups, homes);
        for (slot, seqs) in by_group(&located) {
            self.groups[slot].rescale(seqs, scale);
        }
        let mut split_off: Vec<Member> = Vec::new();
        for (slot, seqs) in by_group(&located) {
            let g = &mut self.groups[slot];
            // A singleton is its own father; never split it.
            if g.len() == 1 {
                continue;
            }
            let to_split: Vec<u64> = seqs
                .filter(|&seq| {
                    g.member(seq).is_some_and(|m| {
                        should_split(m_split(&m.gaussian, g.aggregate()), g.remerge_at_merge(m))
                    })
                })
                .collect();
            if !to_split.is_empty() {
                self.obs.counter(catalogue::COORD_SPLITS, to_split.len() as u64);
                self.obs.event(&Event::Split { group: g.id, members: to_split.len() as u64 });
                self.churn_events += to_split.len() as u64;
                split_off.extend(g.remove(to_split));
            }
        }
        self.groups.retain(|g| !g.is_empty());
        for m in split_off {
            let key = m.key;
            let home = self.insert_component(key, m.gaussian, m.weight);
            Self::rehome(&mut self.registry, key, home);
            self.obs.event(&Event::ReMerge { group: home.0 });
        }
        self.consolidate();
    }

    /// Merges the closest pair of groups (largest `M_merge` between
    /// aggregates) until at most `max_groups` remain, refining merged
    /// representatives with the downhill simplex when enabled.
    ///
    /// Each pair is scored at most once per call, and only while it can
    /// still win. `M_merge` is a pure function of two aggregates and an
    /// aggregate changes only in `absorb`, so the scores live in a table
    /// local to this call, indexed by the slots the groups had when the
    /// call began (`live` maps today's slots to them). Next to its score
    /// each pair keeps a cap, an upper bound on it ([`pair_cap`], O(d)). A
    /// pass takes the first maximum of the pairs scored so far, then scores
    /// the others widest cap first and stops at the first cap below the
    /// best score seen: no pair from there on can reach that score, and
    /// every pair that could tie it was scored, so the first maximum in
    /// slot order is among the scored. `Vec::remove` keeps slot order and a
    /// score is always computed as (lower slot, higher slot), so that is
    /// the pick of a full re-scan ([`best_pair`]), bit for bit — which debug
    /// builds assert at every merge. After slot `j` is absorbed into slot
    /// `i`, the host's caps are recomputed and its scores forgotten at the
    /// top of the next pass, so the last merge of a call re-scores nothing.
    /// An uncertified aggregate's cap is the largest score `M_merge` takes,
    /// so its pairs are scored as they were before there were caps.
    fn consolidate(&mut self) {
        let n = self.groups.len();
        if n <= self.config.max_groups {
            return;
        }
        let mut live: Vec<usize> = (0..n).collect();
        // `M_merge` is never NaN, so NaN marks a pair not scored yet.
        let mut scores = vec![f64::NAN; n * n];
        let mut caps = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                caps[i * n + j] = pair_cap(&self.groups, i, j);
            }
        }
        let mut widest: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        let mut scored = 0u64;
        let mut rescore: Option<usize> = None;
        while self.groups.len() > self.config.max_groups {
            if let Some(host) = rescore.take() {
                for other in (0..self.groups.len()).filter(|&other| other != host) {
                    let (lo, hi) = (host.min(other), host.max(other));
                    let at = live[lo] * n + live[hi];
                    scores[at] = f64::NAN;
                    caps[at] = pair_cap(&self.groups, lo, hi);
                }
            }
            // The first maximum of the pairs scored already; then the pairs
            // not scored yet that can still reach it, widest cap first.
            let mut best: Option<(usize, usize, f64)> = None;
            widest.clear();
            for i in 0..self.groups.len() {
                for j in (i + 1)..self.groups.len() {
                    let at = live[i] * n + live[j];
                    let m = scores[at];
                    if m.is_nan() {
                        widest.push((caps[at], i, j));
                    } else if best.is_none_or(|(_, _, bm)| m > bm) {
                        best = Some((i, j, m));
                    }
                }
            }
            widest.retain(|&(cap, _, _)| best.is_none_or(|(_, _, bm)| cap >= bm));
            widest.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            for &(cap, i, j) in &widest {
                if best.is_some_and(|(_, _, bm)| cap < bm) {
                    break;
                }
                let m = pair_score(&self.groups, i, j);
                scores[live[i] * n + live[j]] = m;
                scored += 1;
                if best.is_none_or(|(bi, bj, bm)| m > bm || (m == bm && (i, j) < (bi, bj))) {
                    best = Some((i, j, m));
                }
            }
            debug_assert_eq!(
                best.map(|(i, j, m)| (i, j, m.to_bits())),
                best_pair(self.groups.len(), |i, j| pair_score(&self.groups, i, j))
                    .map(|(i, j, m)| (i, j, m.to_bits())),
                "the score table picked another pair than a full re-scan"
            );
            let Some((i, j, m)) = best else { break };
            let absorbed = self.groups.remove(j);
            live.remove(j);
            rescore = Some(i);
            self.merge_log.push(MergeRecord {
                at_message: self.messages_applied,
                into_group: self.groups[i].id,
                absorbed_group: absorbed.id,
                members_moved: absorbed.len(),
            });
            self.obs.counter(catalogue::COORD_MERGES, 1);
            self.churn_events += 1;
            self.obs.event(&Event::Merge {
                groups: (self.groups[i].id, absorbed.id),
                mahalanobis: m,
            });
            let (wi, wj) = (self.groups[i].weight(), absorbed.weight());
            let refined = if self.config.refine_merges {
                let gi = self.groups[i].representative().clone();
                let gj = absorbed.representative().clone();
                let (g, loss, evals) = self.config.refiner.refine_with(
                    &mut self.merge_scratch,
                    wi.max(1e-9),
                    &gi,
                    wj.max(1e-9),
                    &gj,
                );
                self.obs.event(&Event::SimplexRefine { iters: evals as u64, loss });
                if let Some(scope) = self.trace_scope.filter(|_| self.obs.tracing_enabled()) {
                    let span = self.obs.alloc_span(scope.node);
                    let now = self.obs.sim_now_us();
                    self.obs.record_span(&SpanRecord {
                        trace: scope.trace,
                        span,
                        parent: Some(scope.parent),
                        name: catalogue::COORD_SIMPLEX,
                        node: scope.node,
                        start_us: now,
                        end_us: now,
                        cost_us: simplex_cost_us(evals as u64),
                    });
                }
                Some(g)
            } else {
                None
            };
            let host = &mut self.groups[i];
            let (host_id, registry) = (host.id, &mut self.registry);
            host.absorb(absorbed, |key, seq| Self::rehome(registry, key, (host_id, seq)));
            host.refined = refined;
        }
        self.obs.counter(catalogue::COORD_PAIRS_SCORED, scored);
    }

    /// Memory footprint of the coordinator state: one Gaussian synopsis per
    /// member plus per-group aggregates. This counts synopsis payload only —
    /// not the groups' running statistics, and not the registry and
    /// model→member index rows, whose number is what
    /// [`Coordinator::event_table_entries`] (the `coord.event_table_entries`
    /// gauge) reports.
    pub fn memory_bytes(&self) -> usize {
        let per_gaussian = |g: &Gaussian| {
            8 * (1 + g.dim() + self.config.covariance.param_count(g.dim()))
        };
        self.groups
            .iter()
            .map(|g| {
                let members: usize = g.members().map(|m| per_gaussian(&m.gaussian)).sum();
                members + if g.is_empty() { 0 } else { per_gaussian(g.aggregate()) }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn identical_site_models_collapse_into_few_groups() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        // Three sites report the same two clusters.
        for site in 0..3 {
            c.apply(&new_model(site, 0, &[0.0, 20.0], 1000)).unwrap();
        }
        assert_eq!(c.component_count(), 6);
        assert_eq!(c.group_count(), 2, "groups: {}", c.group_count());
        let global = c.global_mixture().unwrap();
        assert_eq!(global.k(), 2);
        let mut means: Vec<f64> =
            global.components().iter().map(|g| g.mean()[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 0.5, "means {means:?}");
        assert!((means[1] - 20.0).abs() < 0.5, "means {means:?}");
    }

    #[test]
    fn distant_components_found_new_groups() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&new_model(1, 0, &[100.0], 100)).unwrap();
        assert_eq!(c.group_count(), 2);
    }

    #[test]
    fn consolidation_caps_group_count() {
        let mut c = Coordinator::new(CoordinatorConfig { max_groups: 3, ..Default::default() }).unwrap();
        // Eight far-apart components from different sites.
        for site in 0..8 {
            c.apply(&new_model(site, 0, &[site as f64 * 50.0], 100)).unwrap();
        }
        assert!(c.group_count() <= 3, "groups {}", c.group_count());
        assert_eq!(c.component_count(), 8);
        let g = c.global_mixture().unwrap();
        assert!(g.k() <= 3);
    }

    #[test]
    fn weight_update_rescales_members() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        let before = c.total_weight();
        c.apply(&Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 100 })
            .unwrap();
        let after = c.total_weight();
        assert!((after - 2.0 * before).abs() < 1e-6, "{before} -> {after}");
    }

    #[test]
    fn weight_update_for_unknown_model_errors() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        assert!(c
            .apply(&Message::WeightUpdate { site: 0, model: ModelId(9), count_delta: 1 })
            .is_err());
    }

    #[test]
    fn delete_to_zero_removes_model() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&new_model(1, 0, &[50.0], 100)).unwrap();
        assert_eq!(c.group_count(), 2);
        c.apply(&Message::Delete { site: 0, model: ModelId(0), count_delta: 100 }).unwrap();
        assert_eq!(c.known_models(), 1);
        assert_eq!(c.group_count(), 1);
        let g = c.global_mixture().unwrap();
        assert!((g.components()[0].mean()[0] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn partial_delete_rescales() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&Message::Delete { site: 0, model: ModelId(0), count_delta: 40 }).unwrap();
        assert!((c.total_weight() - 60.0).abs() < 1e-6);
        assert_eq!(c.known_models(), 1);
    }

    #[test]
    fn global_mixture_weights_proportional_to_records() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 300)).unwrap();
        c.apply(&new_model(1, 0, &[100.0], 100)).unwrap();
        let g = c.global_mixture().unwrap();
        let heavy = g
            .components()
            .iter()
            .zip(g.weights())
            .find(|(c, _)| c.mean()[0].abs() < 1.0)
            .expect("group near 0");
        assert!((heavy.1 - 0.75).abs() < 1e-9, "weight {}", heavy.1);
    }

    #[test]
    fn empty_coordinator_has_no_mixture() {
        let c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        assert!(c.global_mixture().is_err());
        assert_eq!(c.group_count(), 0);
        assert_eq!(c.total_weight(), 0.0);
    }

    #[test]
    fn refinement_produces_valid_global_mixture() {
        let mut c = Coordinator::new(CoordinatorConfig {
            max_groups: 1,
            refine_merges: true,
            refiner: MergeRefiner { samples: 64, max_evals: 200, seed: 1 },
            ..Default::default()
        })
        .unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&new_model(1, 0, &[3.0], 100)).unwrap();
        assert_eq!(c.group_count(), 1);
        let g = c.global_mixture().unwrap();
        assert_eq!(g.k(), 1);
        assert!(g.components()[0].mean()[0].is_finite());
        // The merged representative sits between the two inputs.
        let m = g.components()[0].mean()[0];
        assert!((-1.0..4.0).contains(&m), "mean {m}");
    }

    #[test]
    fn update_triggers_split_and_remerge() {
        // Two groups around 0 and 30; a model near 0 grows heavy enough to
        // drag its group aggregate, eventually splitting drifted members.
        let mut c = Coordinator::new(CoordinatorConfig { max_groups: 8, ..Default::default() }).unwrap();
        c.apply(&new_model(0, 0, &[0.0, 2.0], 100)).unwrap();
        c.apply(&new_model(1, 0, &[30.0], 100)).unwrap();
        let groups_before = c.group_count();
        // Massive weight shift on site 0's model.
        c.apply(&Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 10_000 })
            .unwrap();
        // The hierarchy stays valid regardless of whether a split fired.
        assert!(c.group_count() >= 1 && c.group_count() <= groups_before + 2);
        assert!(c.global_mixture().is_ok());
        for g in c.groups() {
            assert!(g.check().is_ok());
            assert!(!g.is_empty());
        }
        assert_eq!(c.component_count(), 3);
    }

    #[test]
    fn duplicate_new_model_is_idempotent() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        let msg = new_model(0, 0, &[0.0, 20.0], 100);
        c.apply(&msg).unwrap();
        let (groups, comps, weight) =
            (c.group_count(), c.component_count(), c.total_weight());
        // Retransmission: state must be unchanged, not doubled.
        c.apply(&msg).unwrap();
        assert_eq!(c.component_count(), comps);
        assert_eq!(c.group_count(), groups);
        assert!((c.total_weight() - weight).abs() < 1e-9);
    }

    #[test]
    fn new_model_with_same_id_replaces_components() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        // Same (site, model) id, different parameters (e.g. a coordinator
        // restart replay with a fresher synopsis).
        c.apply(&new_model(0, 0, &[50.0], 200)).unwrap();
        assert_eq!(c.component_count(), 1);
        let g = c.global_mixture().unwrap();
        assert!((g.components()[0].mean()[0] - 50.0).abs() < 1e-6);
        assert!((c.total_weight() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn weight_update_preserves_unrelated_refined_representatives() {
        let mut c = Coordinator::new(CoordinatorConfig {
            max_groups: 1,
            refine_merges: true,
            refiner: MergeRefiner { samples: 64, max_evals: 200, seed: 7 },
            ..Default::default()
        })
        .unwrap();
        // Two models merge into one refined group.
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&new_model(1, 0, &[3.0], 100)).unwrap();
        assert!(c.groups()[0].refined.is_some(), "merge should refine");
        // A second, far-away model founds... no — max_groups=1 merges it
        // too. Instead update a model NOT in any other group: with one
        // group the refined representative necessarily belongs to the
        // group being updated, so recompute correctly drops it.
        c.apply(&Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 10 })
            .unwrap();
        assert!(c.groups()[0].refined.is_none(), "touched group must recompute");

        // Now two separate groups, one refined-free update path: group B's
        // state must be untouched by an update to group A's model.
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&new_model(1, 0, &[100.0], 100)).unwrap();
        assert_eq!(c.group_count(), 2);
        let before: Vec<f64> =
            c.groups().iter().map(|g| g.aggregate().mean()[0]).collect();
        c.apply(&Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 50 })
            .unwrap();
        let after: Vec<f64> =
            c.groups().iter().map(|g| g.aggregate().mean()[0]).collect();
        assert_eq!(before.len(), after.len());
        // The untouched group's aggregate is bit-identical.
        let untouched_before = before.iter().find(|m| **m > 50.0).unwrap();
        let untouched_after = after.iter().find(|m| **m > 50.0).unwrap();
        assert_eq!(untouched_before, untouched_after);
    }

    #[test]
    fn overflowing_synopsis_is_an_error_not_a_panic() {
        let mut c = Coordinator::new(CoordinatorConfig {
            max_groups: 2,
            refine_merges: true,
            refiner: MergeRefiner { samples: 16, max_evals: 20, seed: 1 },
            ..Default::default()
        })
        .unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        // count · mean² overflows the scatter: the founded group's
        // statistics yield no Gaussian, so it answers with its member.
        assert!(c.apply(&new_model(1, 0, &[1e200], u64::MAX)).is_err());
        assert_eq!(c.group_count(), 2);
        assert!(c.groups().iter().any(|g| g.check().is_err()));
        assert!(c.global_mixture().is_ok());
        // A third group forces a merge (and its refinement) next to the
        // poisoned group; the coordinator keeps going and keeps saying so.
        assert!(c.apply(&new_model(2, 0, &[-1e200], u64::MAX)).is_err());
        assert_eq!(c.group_count(), 2);
        assert_eq!(c.component_count(), 3);
        // Replacing the hostile models by sane ones heals the groups.
        assert!(c.apply(&new_model(1, 0, &[3.0], 100)).is_err(), "model 2 is still there");
        c.apply(&new_model(2, 0, &[50.0], 100)).unwrap();
        assert!(c.check().is_ok());
        assert!((c.total_weight() - 300.0).abs() < 1e-9);
    }

    /// A model founded on no records would hold no mass whatever later
    /// updates add: refused before the replace, like a wrong dimension,
    /// so the mass the coordinator holds stays the records it accounts for.
    #[test]
    fn zero_count_new_model_is_refused_and_mass_is_conserved() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        assert!(c.apply(&new_model(0, 0, &[0.0], 0)).is_err());
        assert_eq!((c.known_models(), c.component_count()), (0, 0));
        let update = Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 500 };
        assert!(c.apply(&update).is_err(), "no model was founded");
        c.check().unwrap();
        c.apply(&new_model(1, 0, &[0.0], 1000)).unwrap();
        c.check().unwrap();
        assert!((c.total_weight() - 1000.0).abs() < 1e-9);
        // A zero-count duplicate of a live model does not delete it.
        assert!(c.apply(&new_model(1, 0, &[5.0], 0)).is_err());
        c.apply(&Message::WeightUpdate { site: 1, model: ModelId(0), count_delta: 500 }).unwrap();
        c.check().unwrap();
        assert!((c.total_weight() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn new_model_of_another_dimension_is_refused_and_changes_nothing() {
        let three_d = |site: u32, model: u64| Message::NewModel {
            site,
            model: ModelId(model),
            count: 100,
            avg_ll: -1.0,
            mixture: Mixture::uniform(vec![
                Gaussian::spherical(Vector::from_slice(&[0.0, 0.0, 0.0]), 1.0).unwrap()
            ])
            .unwrap(),
        };
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0, 20.0], 100)).unwrap();
        let before = (c.group_count(), c.component_count(), c.known_models(), c.total_weight());
        // A new id, and the id of the valid model: a hostile duplicate
        // must not delete what it names.
        for message in [three_d(1, 0), three_d(0, 0)] {
            assert!(matches!(
                c.apply(&message),
                Err(GmmError::DimensionMismatch { expected: 2, got: 3 })
            ));
            let after = (c.group_count(), c.component_count(), c.known_models(), c.total_weight());
            assert_eq!(after, before);
            c.check().unwrap();
        }
        c.apply(&new_model(1, 0, &[0.5], 100)).unwrap();
        assert_eq!(c.known_models(), 2);
        assert_eq!(c.component_count(), 3);
        // An empty coordinator holds no dimension: whatever comes first
        // sets it.
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&three_d(0, 0)).unwrap();
        assert!(c.apply(&new_model(1, 0, &[0.0], 100)).is_err());
    }

    #[test]
    fn pairs_scored_counts_each_pair_once_per_consolidation() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        // Components at (x, 0) with variances (1, var_y).
        let model = |site: u32, xs: &[f64], var_y: f64| Message::NewModel {
            site,
            model: ModelId(0),
            count: 100,
            avg_ll: -1.0,
            mixture: Mixture::uniform(
                xs.iter()
                    .map(|&x| {
                        Gaussian::diagonal(Vector::from_slice(&[x, 0.0]), &[1.0, var_y]).unwrap()
                    })
                    .collect(),
            )
            .unwrap(),
        };
        let run = |var_y: f64| {
            let registry = Arc::new(Registry::new());
            let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
            c.set_observer(Obs::from_registry(Arc::clone(&registry)));
            // Eight far-apart singletons: no message needs a merge, and a
            // message that needs none does not create the series.
            for site in 0..8 {
                c.apply(&model(site, &[f64::from(site) * 500.0], var_y)).unwrap();
            }
            assert_eq!(c.group_count(), 8);
            assert_eq!(registry.counter_value("coord.pairs_scored"), 0);
            assert!(registry.counters().iter().all(|(name, _)| *name != "coord.pairs_scored"));
            // Five more in one message: 13 groups back to 8 in five merges.
            c.apply(&model(8, &[-500.0, -1000.0, -1500.0, -2000.0, -2500.0], var_y)).unwrap();
            assert_eq!(c.group_count(), 8);
            assert_eq!(registry.counter_value("coord.merges"), 5);
            let certified = c.groups().iter().filter(|g| g.dist_factor().is_some()).count();
            (registry.counter_value("coord.pairs_scored"), certified, c.merge_log().to_vec())
        };
        // The caps rule out all but the 12 pairs of neighbours 500 apart,
        // which tie at M_merge = 2e-6. A merge leaves a host wide along x,
        // and of its re-capped pairs only those that might reach 2e-6 are
        // scored: the first host's two new neighbours (1.8e-6 each), the
        // second's nearest wide group (3.1e-2, merged next), none of the
        // third's, one of the fourth's: 12, 2, 1, 0 and 1 a pass.
        let (scored, certified, merges) = run(1.0);
        assert_eq!(certified, 8);
        assert_eq!(scored, 12 + 2 + 1 + 1);
        // κ(Σ) = 1e12 fails every certificate: every cap is the largest
        // score, and the pairs are scored as the table without caps scored
        // them — 78 pairs once, then the host's 11, 10, 9 and 8 (the last
        // merge re-scores nothing), where scanning every pair before every
        // merge would read 78 + 66 + 55 + 45 + 36 = 280. The y-axis adds
        // nothing to any distance, so the merges are the same.
        let (scored, certified, same_merges) = run(1e-12);
        assert_eq!(certified, 0);
        assert_eq!(scored, 78 + 11 + 10 + 9 + 8);
        assert_eq!(same_merges, merges);
    }

    #[test]
    fn merge_log_records_hierarchy() {
        let mut c = Coordinator::new(CoordinatorConfig { max_groups: 2, ..Default::default() }).unwrap();
        // Four far-apart models force two consolidation merges.
        for site in 0..4 {
            c.apply(&new_model(site, 0, &[site as f64 * 50.0], 100)).unwrap();
        }
        assert_eq!(c.group_count(), 2);
        let log = c.merge_log();
        assert_eq!(log.len(), 2, "log {log:?}");
        // Absorbed groups no longer exist; survivors do.
        for rec in log {
            assert!(rec.members_moved >= 1);
            assert!(rec.at_message >= 1);
            assert!(
                c.groups().iter().all(|g| g.id != rec.absorbed_group),
                "absorbed group {} still alive",
                rec.absorbed_group
            );
        }
        // The log is message-ordered.
        assert!(log.windows(2).all(|w| w[0].at_message <= w[1].at_message));
    }

    #[test]
    fn merge_log_cap_bounds_retained_history() {
        let run = |cap: Option<usize>| {
            let mut c = Coordinator::new(CoordinatorConfig {
                max_groups: 2,
                merge_log_cap: cap,
                ..Default::default()
            })
            .unwrap();
            for site in 0..8 {
                c.apply(&new_model(site, 0, &[site as f64 * 50.0], 100)).unwrap();
            }
            c
        };
        let unbounded = run(None);
        assert_eq!(unbounded.merges_compacted(), 0);
        assert!(unbounded.merge_log().len() >= 4, "log {:?}", unbounded.merge_log());

        let capped = run(Some(2));
        assert_eq!(capped.merge_log().len(), 2);
        // The retained suffix is exactly the tail of the full history, and
        // the compaction counter accounts for every dropped record.
        assert_eq!(
            capped.merge_log(),
            &unbounded.merge_log()[unbounded.merge_log().len() - 2..]
        );
        assert_eq!(
            capped.merges_compacted() as usize + capped.merge_log().len(),
            unbounded.merge_log().len()
        );
        // Compaction never touches the clustering state itself.
        assert_eq!(capped.group_count(), unbounded.group_count());
        assert_eq!(capped.component_count(), unbounded.component_count());
    }

    #[test]
    fn event_table_gauge_tracks_registry_and_log() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        let registry = Arc::new(Registry::new());
        let mut c = Coordinator::new(CoordinatorConfig { max_groups: 2, ..Default::default() })
            .unwrap();
        c.set_observer(Obs::from_registry(Arc::clone(&registry)));
        for site in 0..4 {
            c.apply(&new_model(site, 0, &[site as f64 * 50.0], 100)).unwrap();
        }
        assert_eq!(c.event_table_entries(), c.known_models() + c.merge_log().len());
        assert_eq!(
            registry.gauge_value("coord.event_table_entries"),
            Some(c.event_table_entries() as f64)
        );
    }

    #[test]
    fn messages_applied_counter() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        c.apply(&Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 1 }).unwrap();
        assert_eq!(c.messages_applied(), 2);
    }

    #[test]
    fn memory_accounting_positive_and_grows() {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        c.apply(&new_model(0, 0, &[0.0], 100)).unwrap();
        let one = c.memory_bytes();
        assert!(one > 0);
        c.apply(&new_model(1, 0, &[100.0], 100)).unwrap();
        assert!(c.memory_bytes() > one);
    }

    #[test]
    fn quality_flag_gates_coordinator_gauges() {
        use cludistream_obs::Registry;
        use std::sync::Arc;

        let run = |quality: bool| {
            let registry = Arc::new(Registry::new());
            let mut c = Coordinator::new(CoordinatorConfig {
                max_groups: 2,
                quality,
                ..Default::default()
            })
            .unwrap();
            c.set_observer(Obs::from_registry(Arc::clone(&registry)));
            // Four far-apart models force consolidation merges (churn).
            for site in 0..4 {
                c.apply(&new_model(site, 0, &[site as f64 * 50.0], 100)).unwrap();
            }
            registry
        };

        let off = run(false);
        assert_eq!(off.gauge_value("quality.weight_entropy"), None);
        assert_eq!(off.gauge_value("quality.churn_ewma"), None);

        let on = run(true);
        let entropy = on.gauge_value("quality.weight_entropy").unwrap();
        assert!(entropy >= 0.0, "entropy {entropy} must be non-negative");
        let (min, max) = (
            on.gauge_value("quality.weight_min").unwrap(),
            on.gauge_value("quality.weight_max").unwrap(),
        );
        assert!(0.0 < min && min <= max && max <= 1.0, "extrema ({min}, {max})");
        assert!(on.gauge_value("quality.churn_ewma").unwrap() > 0.0, "merges happened");
    }
}
