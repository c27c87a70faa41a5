use super::split::m_remerge;
use crate::remote::ModelId;
use crate::serving::{SnapshotMember, SnapshotMembers};
use cludistream_gmm::{DistBoundFactor, Gaussian, GmmError, SuffStats};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Global identity of a remote component: which site, which of its models,
/// and which component within that model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentKey {
    /// Originating site.
    pub site: u32,
    /// Site-local model id.
    pub model: ModelId,
    /// Component index within the model's mixture.
    pub component: usize,
}

/// A component as held by the coordinator: its Gaussian synopsis, its
/// record weight, and the `M_remerge` score captured when it was merged
/// into its current group (Algorithm 2 compares against this).
#[derive(Debug, Clone)]
pub struct Member {
    /// Identity.
    pub key: ComponentKey,
    /// The component Gaussian.
    pub gaussian: Gaussian,
    /// Records attributed to this component (model count × component
    /// weight).
    pub weight: f64,
    /// `M_remerge(i, Mix)` as captured when the member joined its group. A
    /// later merge of the group supersedes it without touching the member:
    /// read it through `Group::remerge_at_merge`.
    pub remerge_at_merge: f64,
    /// The group's merge epoch when `remerge_at_merge` was captured.
    pub(crate) epoch: u64,
}

impl Member {
    /// A component that has not joined a group yet. Its `M_remerge` is
    /// infinite — what a group's founder keeps (it is its own father, at
    /// distance 0) and what [`Group::push`] overwrites for a joiner.
    pub fn new(key: ComponentKey, gaussian: Gaussian, weight: f64) -> Self {
        Member { key, gaussian, weight, remerge_at_merge: f64::INFINITY, epoch: 0 }
    }

    /// The weight the member carries in the aggregate: zero-weight members
    /// still anchor it minimally.
    fn anchored_weight(&self) -> f64 {
        self.weight.max(1e-9)
    }
}

/// A member as a snapshot's lineage names it.
fn snapshot_member(m: &Member) -> SnapshotMember {
    SnapshotMember { site: m.key.site, model: m.key.model, component: m.key.component as u32 }
}

/// The running statistics are rebuilt exactly once their mass has fallen
/// below this fraction of the largest mass they held since the last
/// rebuild: what a subtraction leaves behind is the rounding error of the
/// larger sum, so a group that shed a member a thousand times its own size
/// would otherwise carry that member's error in its covariance.
const CANCELLATION_GUARD: f64 = 1.0 / 1024.0;

/// Largest relative gap [`Group::check_moments`] allows between the running
/// statistics and a fresh fold of the members.
const MOMENT_TOLERANCE: f64 = 1e-9;

/// A group of components — one "Gaussian mixture model" node in the
/// coordinator's hierarchy (the father of its members). The root of the
/// paper's tree is the set of groups; each group's children are its member
/// components.
///
/// The aggregate is maintained from running statistics: joins are folded
/// in, removals subtracted, reweights applied as a difference, so no
/// operation walks the members. `Group::recompute` is the exact rebuild;
/// a history of joins alone matches it bit for bit (same additions in the
/// same order), and a group falls back to it once it has taken as many
/// inexact operations (removals, reweights) as it has members, when its
/// mass collapses (see `CANCELLATION_GUARD`), or when the running
/// statistics no longer yield a Gaussian.
#[derive(Debug, Clone)]
pub struct Group {
    /// Stable group identity.
    pub id: u64,
    /// Member components by join sequence number. Iteration order is join
    /// order, which is the fold order of the aggregate.
    members: BTreeMap<u64, Member>,
    next_seq: u64,
    /// Running `Σ` of the members' statistics, in join order.
    stats: SuffStats,
    /// Running `Σ` of the members' weights, in join order.
    weight: f64,
    /// Removals and reweights taken since the last exact rebuild.
    inexact_ops: usize,
    /// Largest mass `stats` held since the last exact rebuild.
    peak_mass: f64,
    /// Moment-matched aggregate of the members (the `(μ_Mix, Σ_Mix)` of
    /// Eq. 6), derived from `stats` after every change.
    aggregate: Gaussian,
    /// `aggregate`'s [`Gaussian::dist_bound_factor`], set with it: what
    /// lets placement and consolidation skip pairs that cannot win. Not
    /// synopsis payload, so [`super::Coordinator::memory_bytes`] does not
    /// count it.
    dist_factor: Option<DistBoundFactor>,
    /// Set when the last change left statistics that yield no Gaussian
    /// even after an exact rebuild; `aggregate` is then the previous one.
    stale: bool,
    /// Simplex-refined representative (Sec. 5.2.1), when merge refinement
    /// is enabled. Invalidated by membership changes.
    pub refined: Option<Gaussian>,
    /// Merges this group (or a group it absorbed) has been through. A
    /// member whose `epoch` differs joined before the last one.
    epoch: u64,
    /// The aggregate right after the last merge: what `M_remerge` of every
    /// member that was present then is measured against.
    merged_aggregate: Option<Gaussian>,
    /// The members' `(site, model, component)` in join order, as a
    /// snapshot publishes them: built on the first `Group::lineage` after
    /// a membership change and shared by every snapshot until the next
    /// one. Reweights leave it alone. Neither it nor the two fields below
    /// are synopsis payload, so [`super::Coordinator::memory_bytes`] does
    /// not count them.
    lineage: OnceLock<SnapshotMembers>,
    /// The lineage built last, set aside by the membership change that
    /// ended it: what the next build shares its chunks with.
    previous_lineage: Option<SnapshotMembers>,
    /// Sequence numbers removed since `previous_lineage` was built, never
    /// more than it has members.
    removed_since: Vec<u64>,
}

impl Group {
    /// Creates a group seeded with one member, under sequence number 0.
    /// The member's `remerge_at_merge` is left as given.
    pub fn new(id: u64, mut seed: Member) -> Self {
        seed.epoch = 0;
        let mut g = Group {
            id,
            stats: SuffStats::new(seed.gaussian.dim()),
            weight: 0.0,
            inexact_ops: 0,
            peak_mass: 0.0,
            // A singleton's aggregate is its member, should the statistics
            // of a hostile seed yield nothing.
            aggregate: seed.gaussian.clone(),
            dist_factor: None,
            stale: false,
            members: BTreeMap::from([(0, seed)]),
            next_seq: 1,
            refined: None,
            epoch: 0,
            merged_aggregate: None,
            lineage: OnceLock::new(),
            previous_lineage: None,
            removed_since: Vec::new(),
        };
        g.recompute();
        g
    }

    /// Total record weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of member components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the group has no members (it should then be dropped).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member components, in join order.
    pub fn members(&self) -> impl Iterator<Item = &Member> {
        self.members.values()
    }

    /// The member that joined under sequence number `seq`, if it is still
    /// here.
    pub(crate) fn member(&self, seq: u64) -> Option<&Member> {
        self.members.get(&seq)
    }

    /// The members' identities in join order, built on the first call
    /// after a membership change — from the lineage built last, sharing
    /// every chunk the change left alone — and shared until the next one.
    pub(crate) fn lineage(&self) -> &SnapshotMembers {
        self.lineage.get_or_init(|| {
            let built = SnapshotMembers::rebuild(
                self.previous_lineage.as_ref(),
                &self.removed_since,
                &self.members,
                self.next_seq,
                snapshot_member,
            );
            debug_assert!(
                built.iter().copied().eq(self.members.values().map(snapshot_member)),
                "group {}: the built lineage is not the member walk",
                self.id
            );
            debug_assert!(
                built.chunk_count() <= SnapshotMembers::max_chunks(built.len()),
                "group {}: {} chunks for {} members",
                self.id,
                built.chunk_count(),
                built.len()
            );
            built
        })
    }

    /// Sets a built lineage aside for the next build to start from; a
    /// removal also notes its sequence number there. No walk, no copy.
    fn lineage_changed(&mut self, removed: Option<u64>) {
        if let Some(built) = self.lineage.take() {
            self.previous_lineage = Some(built);
            self.removed_since.clear();
        }
        let (Some(seq), Some(previous)) = (removed, &self.previous_lineage) else { return };
        // Past as many removals as it has members, a walk is as cheap.
        if self.removed_since.len() < previous.len() {
            self.removed_since.push(seq);
        } else {
            self.previous_lineage = None;
            self.removed_since.clear();
        }
    }

    /// The aggregate Gaussian. Of an empty group, the last one it had.
    pub fn aggregate(&self) -> &Gaussian {
        &self.aggregate
    }

    /// The aggregate's [`Gaussian::dist_bound_factor`]: `None` while the
    /// aggregate is the seed a hostile group kept, or fails the
    /// certificate.
    pub(crate) fn dist_factor(&self) -> Option<DistBoundFactor> {
        self.dist_factor
    }

    /// Makes `aggregate` the group's aggregate, with its bound factor.
    fn set_aggregate(&mut self, aggregate: Gaussian) {
        self.dist_factor = aggregate.dist_bound_factor();
        self.aggregate = aggregate;
    }

    /// Adds a member, refreshes the aggregate, and captures the member's
    /// `M_remerge` against that post-insertion aggregate, so that
    /// `M_split == 1/M_remerge` holds at merge time. Returns the member's
    /// sequence number in this group.
    pub fn push(&mut self, mut member: Member) -> u64 {
        member.epoch = self.epoch;
        let seq = self.adopt(member);
        self.refresh();
        if let Some(m) = self.members.get_mut(&seq) {
            m.remerge_at_merge = m_remerge(&m.gaussian, &self.aggregate);
        }
        seq
    }

    /// Moves every member of `other` in behind this group's own, in their
    /// order, and refreshes the aggregate: one merge of Algorithm 2.
    /// `moved` is told each member's new sequence number. Every member's
    /// merge-time `M_remerge` is from now on measured against the new
    /// aggregate ([`Group::remerge_at_merge`]), without visiting them.
    pub(crate) fn absorb(&mut self, other: Group, mut moved: impl FnMut(ComponentKey, u64)) {
        for m in other.members.into_values() {
            let key = m.key;
            moved(key, self.adopt(m));
        }
        self.refresh();
        // Above every member's epoch on either side.
        self.epoch = self.epoch.max(other.epoch) + 1;
        self.merged_aggregate = Some(self.aggregate.clone());
    }

    /// Files `member` under the next sequence number and folds its share
    /// (its Gaussian at its anchored weight) into the running statistics —
    /// the same additions, in the same order, as the exact rebuild makes.
    fn adopt(&mut self, member: Member) -> u64 {
        self.stats.merge_gaussian(&member.gaussian, member.anchored_weight());
        self.weight += member.weight;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.members.insert(seq, member);
        self.lineage_changed(None);
        seq
    }

    /// Removes the members with these sequence numbers, returning them in
    /// the order given; refreshes the aggregate when any member remains.
    pub(crate) fn remove(&mut self, seqs: impl IntoIterator<Item = u64>) -> Vec<Member> {
        let removed: Vec<Member> = seqs
            .into_iter()
            .filter_map(|seq| {
                let m = self.members.remove(&seq)?;
                self.lineage_changed(Some(seq));
                Some(m)
            })
            .collect();
        for m in &removed {
            self.stats.unmerge_gaussian(&m.gaussian, m.anchored_weight());
            self.weight -= m.weight;
        }
        if !removed.is_empty() {
            self.inexact_ops += removed.len();
            self.refresh();
        }
        removed
    }

    /// Multiplies the weight of the members with these sequence numbers by
    /// `scale` and refreshes the aggregate.
    pub(crate) fn rescale(&mut self, seqs: impl IntoIterator<Item = u64>, scale: f64) {
        let mut touched = 0;
        for seq in seqs {
            let Some(m) = self.members.get_mut(&seq) else { continue };
            let (old, old_anchored) = (m.weight, m.anchored_weight());
            m.weight *= scale;
            // Statistics are linear in the weight: the difference replaces
            // the member's old share by its new one.
            let delta = m.anchored_weight() - old_anchored;
            self.stats.merge_gaussian(&m.gaussian, delta);
            self.weight += m.weight - old;
            touched += 1;
        }
        if touched > 0 {
            self.inexact_ops += touched;
            self.refresh();
        }
    }

    /// `M_remerge(i, Mix)` of member `m` as of the later of its joining the
    /// group and the group's last merge — the value Algorithm 2 stores per
    /// merge. After a merge it is derived on demand from the aggregate the
    /// merge left, which gives what refreshing every member at merge time
    /// would have stored.
    pub(crate) fn remerge_at_merge(&self, m: &Member) -> f64 {
        match &self.merged_aggregate {
            Some(aggregate) if m.epoch != self.epoch => m_remerge(&m.gaussian, aggregate),
            _ => m.remerge_at_merge,
        }
    }

    /// Derives the aggregate from the running statistics after a change,
    /// through the exact rebuild when one is due, and drops any stale
    /// refined representative.
    fn refresh(&mut self) {
        self.refined = None;
        self.peak_mass = self.peak_mass.max(self.stats.n());
        let rebuild_due = self.inexact_ops >= self.members.len()
            || self.stats.n() < self.peak_mass * CANCELLATION_GUARD;
        if !rebuild_due {
            if let Ok((aggregate, _)) = self.stats.to_gaussian() {
                self.set_aggregate(aggregate);
                self.stale = false;
                return;
            }
        }
        self.recompute();
    }

    /// Rebuilds the running statistics and the moment-matched aggregate
    /// from the members — the exact path, and the reference the running
    /// path is tested against — and drops any stale refined
    /// representative.
    pub(crate) fn recompute(&mut self) {
        self.refined = None;
        self.inexact_ops = 0;
        self.stats = SuffStats::new(self.stats.dim());
        self.weight = 0.0;
        for m in self.members.values() {
            self.stats.merge_gaussian(&m.gaussian, m.anchored_weight());
            self.weight += m.weight;
        }
        self.peak_mass = self.stats.n();
        self.stale = false;
        if !self.members.is_empty() {
            match self.stats.to_gaussian() {
                Ok((aggregate, _)) => self.set_aggregate(aggregate),
                Err(_) => self.stale = true,
            }
        }
    }

    /// The Gaussian representing this group in the global mixture: the
    /// refined component when present, the aggregate otherwise.
    pub(crate) fn representative(&self) -> &Gaussian {
        self.refined.as_ref().unwrap_or(&self.aggregate)
    }

    /// Errors when the aggregate of a non-empty group could not be derived
    /// from its members (non-finite statistics); the group then still
    /// answers with its previous aggregate.
    pub(crate) fn check(&self) -> Result<(), GmmError> {
        if self.stale {
            return Err(GmmError::InvalidParameter {
                name: "group",
                constraint: "member statistics must yield a finite Gaussian aggregate",
            });
        }
        Ok(())
    }

    /// Errors unless the running statistics equal a fresh fold of the
    /// members at their anchored weights (what [`Group::recompute`] folds)
    /// to [`MOMENT_TOLERANCE`] relative: the mass and the summed weight
    /// against the fresh mass; each entry of the pooled mean and covariance
    /// against the fresh pooled second moment `max_i(Σ_ii + μ_i²)`, the
    /// magnitude at which the statistics are summed. A check for tests: it
    /// walks every member.
    pub(crate) fn check_moments(&self) -> Result<(), GmmError> {
        let mut fresh = SuffStats::new(self.stats.dim());
        let mut weight = 0.0;
        for m in self.members.values() {
            fresh.merge_gaussian(&m.gaussian, m.anchored_weight());
            weight += m.weight;
        }
        let broken = GmmError::InvalidParameter {
            name: "group",
            constraint: "running statistics equal a fresh fold of the members",
        };
        let close =
            |got: f64, want: f64, scale: f64| (got - want).abs() <= MOMENT_TOLERANCE * scale;
        if !close(self.stats.n(), fresh.n(), fresh.n()) || !close(self.weight, weight, fresh.n()) {
            return Err(broken);
        }
        if self.members.is_empty() {
            return Ok(());
        }
        let (mean, cov) = (self.stats.mean()?, self.stats.cov()?);
        let (fresh_mean, fresh_cov) = (fresh.mean()?, fresh.cov()?);
        let d = mean.dim();
        let scale =
            (0..d).map(|i| fresh_cov[(i, i)] + fresh_mean[i] * fresh_mean[i]).fold(0.0, f64::max);
        let means = mean.iter().zip(fresh_mean.iter()).all(|(&a, &b)| close(a, b, scale.sqrt()));
        let covs =
            cov.as_slice().iter().zip(fresh_cov.as_slice()).all(|(&a, &b)| close(a, b, scale));
        if means && covs {
            Ok(())
        } else {
            Err(broken)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_linalg::Vector;

    fn member(site: u32, center: f64, weight: f64) -> Member {
        Member {
            key: ComponentKey { site, model: ModelId(0), component: 0 },
            gaussian: Gaussian::spherical(Vector::from_slice(&[center]), 1.0).unwrap(),
            weight,
            remerge_at_merge: 1.0,
            epoch: 0,
        }
    }

    #[test]
    fn singleton_aggregate_is_member() {
        let g = Group::new(0, member(0, 5.0, 100.0));
        assert_eq!(g.len(), 1);
        assert!((g.aggregate().mean()[0] - 5.0).abs() < 1e-9);
        assert_eq!(g.weight(), 100.0);
        assert!(g.check().is_ok());
    }

    #[test]
    fn aggregate_is_weighted_moment_match() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        g.push(member(1, 10.0, 300.0));
        // Weighted mean: (0·100 + 10·300)/400 = 7.5.
        assert!((g.aggregate().mean()[0] - 7.5).abs() < 1e-9);
        // Variance: Σ (w/W)(σ² + (μ−μ')²) = 0.25(1+56.25) + 0.75(1+6.25).
        let expect = 0.25 * 57.25 + 0.75 * 7.25;
        assert!((g.aggregate().cov()[(0, 0)] - expect).abs() < 1e-6);
    }

    #[test]
    fn remove_drops_members_and_recomputes() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        let second = g.push(member(1, 10.0, 100.0));
        let removed = g.remove([0]);
        assert_eq!(removed.len(), 1);
        assert_eq!(g.len(), 1);
        assert!((g.aggregate().mean()[0] - 10.0).abs() < 1e-9);
        // Removing everything leaves an empty group.
        let _ = g.remove([second]);
        assert!(g.is_empty());
    }

    #[test]
    fn merge_supersedes_every_members_remerge_without_visiting_them() {
        let mut host = Group::new(0, member(0, 0.0, 100.0));
        host.push(member(1, 1.0, 100.0));
        let mut other = Group::new(1, member(2, 6.0, 100.0));
        other.push(member(3, 7.0, 50.0));
        let mut moved = Vec::new();
        host.absorb(other, |key, seq| moved.push((key.site, seq)));
        assert_eq!(moved, vec![(2, 2), (3, 3)]);
        // What refreshing every member at merge time would have stored.
        let at_merge = host.aggregate().clone();
        for m in host.members() {
            assert_eq!(host.remerge_at_merge(m), m_remerge(&m.gaussian, &at_merge));
        }
        // A later joiner is measured against the aggregate it joined, and
        // moving the aggregate does not move what the merge stored.
        let seq = host.push(member(4, 3.0, 400.0));
        let joiner = host.member(seq).unwrap();
        assert_eq!(host.remerge_at_merge(joiner), m_remerge(&joiner.gaussian, host.aggregate()));
        for m in host.members().filter(|m| m.key.site != 4) {
            assert_eq!(host.remerge_at_merge(m), m_remerge(&m.gaussian, &at_merge));
        }
        // The absorbed statistics were folded in member order: bit-equal
        // to the exact rebuild.
        let (mean, cov) = (host.aggregate().mean().clone(), host.aggregate().cov().clone());
        host.recompute();
        assert_eq!(host.aggregate().mean().as_slice(), mean.as_slice());
        assert_eq!(host.aggregate().cov().as_slice(), cov.as_slice());
    }

    #[test]
    fn reweights_and_removals_track_the_exact_rebuild() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        let seqs: Vec<u64> = (1..8).map(|i| g.push(member(i, i as f64, 100.0))).collect();
        g.rescale(seqs[..2].iter().copied(), 2.5);
        let removed = g.remove(seqs[5..].iter().copied());
        assert_eq!(removed.iter().map(|m| m.key.site).collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(g.weight(), 100.0 * 4.0 + 250.0 * 2.0);
        let running = g.aggregate().clone();
        g.recompute();
        assert!((running.mean()[0] - g.aggregate().mean()[0]).abs() < 1e-12);
        assert!((running.cov()[(0, 0)] - g.aggregate().cov()[(0, 0)]).abs() < 1e-12);
        // As many inexact operations as members: the group rebuilt itself.
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        let seq = g.push(member(1, 4.0, 100.0));
        g.rescale([0], 3.0);
        g.rescale([seq], 0.5);
        let (mean, cov) = (g.aggregate().mean()[0], g.aggregate().cov()[(0, 0)]);
        g.recompute();
        assert_eq!((g.aggregate().mean()[0], g.aggregate().cov()[(0, 0)]), (mean, cov));
    }

    #[test]
    fn running_moments_stay_a_fresh_fold_through_every_operation() {
        let wide = |site: u32, center: f64, var: f64, weight: f64| {
            let mean = Vector::from_slice(&[center, -2.0 * center]);
            let cov = cludistream_linalg::Matrix::from_rows(&[&[var, 0.3], &[0.3, 2.0 * var]]);
            Member::new(
                ComponentKey { site, model: ModelId(0), component: 0 },
                Gaussian::new(mean, cov).unwrap(),
                weight,
            )
        };
        let mut g = Group::new(0, wide(0, 0.0, 1.0, 100.0));
        g.check_moments().unwrap();
        let seqs: Vec<u64> = (1..12).map(|i| g.push(wide(i, f64::from(i), 0.5, 50.0))).collect();
        g.check_moments().unwrap();
        g.rescale(seqs[..3].iter().copied(), 40.0);
        g.check_moments().unwrap();
        let _ = g.remove(seqs[3..5].iter().copied());
        g.check_moments().unwrap();
        g.rescale([seqs[6]], 1e-3);
        g.check_moments().unwrap();
        let mut other = Group::new(1, wide(20, 30.0, 3.0, 1e4));
        other.push(wide(21, 31.0, 0.1, 0.0));
        other.rescale([0], 0.5);
        other.check_moments().unwrap();
        g.absorb(other, |_, _| {});
        g.check_moments().unwrap();
        // A handle to the aggregate keeps the block it shares: the next
        // refresh builds the group a new one and leaves that one alone.
        let shared = g.aggregate().clone();
        let _ = g.remove([seqs[0]]);
        g.check_moments().unwrap();
        assert_ne!(shared.mean().as_slice(), g.aggregate().mean().as_slice());
        // A share folded in twice, or a member left out, is caught.
        let extra = g.members().nth(2).unwrap().gaussian.clone();
        g.stats.merge_gaussian(&extra, 50.0);
        assert!(g.check_moments().is_err());
        g.recompute();
        g.check_moments().unwrap();
        g.weight += 1.0;
        assert!(g.check_moments().is_err());
    }

    #[test]
    fn refined_invalidated_on_change() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        g.refined = Some(Gaussian::spherical(Vector::from_slice(&[1.0]), 1.0).unwrap());
        assert!((g.representative().mean()[0] - 1.0).abs() < 1e-12);
        g.push(member(1, 5.0, 100.0));
        assert!(g.refined.is_none());
        // Representative falls back to the aggregate.
        assert!((g.representative().mean()[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_member_does_not_break_aggregate() {
        let mut g = Group::new(0, member(0, 0.0, 0.0));
        g.recompute();
        assert!(g.check().is_ok());
        assert!(g.aggregate().mean()[0].abs() < 1e-9);
    }
}
