use cludistream_gmm::{CovarianceType, Mixture};

/// Identifier of a model in a site's model list. Unique per site, assigned
/// in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u64);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One entry of the model list: a learned mixture, the average log
/// likelihood of its founding chunk (the `AvgPr₀` that future chunks are
/// tested against), and the counter `c` of records it has absorbed.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Model identity.
    pub id: ModelId,
    /// The learned Gaussian mixture.
    pub mixture: Mixture,
    /// Average log likelihood of the founding chunk under this model
    /// (`AvgPr₀`; the fit test compares future chunks against it with the
    /// calibrated tolerance, see DESIGN.md "fit-test calibration").
    pub avg_ll: f64,
    /// Standard deviation of the per-record log likelihood on the founding
    /// chunk (calibrates the fit tolerance).
    pub ll_std: f64,
    /// Records currently attributed to this model (the paper's counter c).
    pub count: u64,
    /// Chunk index at which the model was created.
    pub created_at_chunk: u64,
    /// Chunk index at which the model last governed a chunk (drives
    /// least-recently-active eviction under `Config::max_models`).
    pub last_active_chunk: u64,
}

/// The model list a remote site maintains (paper Sec. 5.1): every
/// distribution the stream has exhibited, each with a unique model ID.
#[derive(Debug, Clone, Default)]
pub struct ModelList {
    entries: Vec<ModelEntry>,
    next_id: u64,
}

impl ModelList {
    /// Creates an empty list.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of models (the `B` of Theorem 3).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no model has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a freshly learned model, returning its id.
    pub(crate) fn insert(
        &mut self,
        mixture: Mixture,
        avg_ll: f64,
        ll_std: f64,
        count: u64,
        chunk: u64,
    ) -> ModelId {
        let id = ModelId(self.next_id);
        self.next_id += 1;
        self.entries.push(ModelEntry {
            id,
            mixture,
            avg_ll,
            ll_std,
            count,
            created_at_chunk: chunk,
            last_active_chunk: chunk,
        });
        id
    }

    /// Looks up a model by id.
    pub(crate) fn get(&self, id: ModelId) -> Option<&ModelEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, id: ModelId) -> Option<&mut ModelEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Removes a model (sliding-window expiry), returning it.
    pub(crate) fn remove(&mut self, id: ModelId) -> Option<ModelEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(pos))
    }

    /// All entries in creation order.
    pub(crate) fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// The most recent models first, excluding `skip` — the candidate order
    /// for the multi-test strategy.
    pub(crate) fn recent_except(&self, skip: ModelId) -> impl Iterator<Item = &ModelEntry> {
        self.entries.iter().rev().filter(move |e| e.id != skip)
    }

    /// Next id to be assigned (for snapshot/restore).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Rebuilds a list from snapshot parts. `next_id` must exceed every
    /// entry's id.
    pub(crate) fn from_parts(entries: Vec<ModelEntry>, next_id: u64) -> Self {
        debug_assert!(entries.iter().all(|e| e.id.0 < next_id));
        ModelList { entries, next_id }
    }

    /// The least-recently-active model other than `keep` (the eviction
    /// candidate under a bounded model list). `None` when no other model
    /// exists.
    pub(crate) fn least_recently_active_except(&self, keep: ModelId) -> Option<ModelId> {
        self.entries
            .iter()
            .filter(|e| e.id != keep)
            .min_by_key(|e| e.last_active_chunk)
            .map(|e| e.id)
    }

    /// Model-parameter memory in bytes: `B · K(d² + d + 1)` f64 values
    /// (Theorem 3's second term), with the diagonal representation when
    /// applicable.
    pub(crate) fn memory_bytes(&self, covariance: CovarianceType) -> usize {
        self.entries
            .iter()
            .map(|e| {
                let (k, d) = (e.mixture.k(), e.mixture.dim());
                8 * k * (1 + d + covariance.param_count(d))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_gmm::Gaussian;
    use cludistream_linalg::Vector;

    fn mixture(center: f64) -> Mixture {
        Mixture::single(Gaussian::spherical(Vector::from_slice(&[center, center]), 1.0).unwrap())
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut l = ModelList::new();
        let a = l.insert(mixture(0.0), -1.0, 0.5, 100, 0);
        let b = l.insert(mixture(1.0), -1.1, 0.5, 100, 3);
        assert_eq!(a, ModelId(0));
        assert_eq!(b, ModelId(1));
        assert_eq!(l.len(), 2);
        assert_eq!(l.get(a).unwrap().created_at_chunk, 0);
        assert_eq!(l.get(b).unwrap().created_at_chunk, 3);
    }

    #[test]
    fn get_mut_updates_counter() {
        let mut l = ModelList::new();
        let a = l.insert(mixture(0.0), -1.0, 0.5, 100, 0);
        l.get_mut(a).unwrap().count += 50;
        assert_eq!(l.get(a).unwrap().count, 150);
    }

    #[test]
    fn recent_except_orders_most_recent_first() {
        let mut l = ModelList::new();
        let a = l.insert(mixture(0.0), -1.0, 0.5, 1, 0);
        let b = l.insert(mixture(1.0), -1.0, 0.5, 1, 1);
        let c = l.insert(mixture(2.0), -1.0, 0.5, 1, 2);
        let order: Vec<ModelId> = l.recent_except(b).map(|e| e.id).collect();
        assert_eq!(order, vec![c, a]);
        // Least-recently-active: a (created chunk 0) unless touched.
        assert_eq!(l.least_recently_active_except(b), Some(a));
        l.get_mut(a).unwrap().last_active_chunk = 9;
        assert_eq!(l.least_recently_active_except(b), Some(c));
        assert_eq!(l.least_recently_active_except(a), Some(b));
    }

    #[test]
    fn remove_deletes_entry() {
        let mut l = ModelList::new();
        let a = l.insert(mixture(0.0), -1.0, 0.5, 10, 0);
        let removed = l.remove(a).unwrap();
        assert_eq!(removed.id, a);
        assert!(l.is_empty());
        assert!(l.remove(a).is_none());
        assert!(l.get(a).is_none());
    }

    #[test]
    fn memory_accounting_matches_theorem3() {
        let mut l = ModelList::new();
        l.insert(mixture(0.0), -1.0, 0.5, 1, 0); // K=1, d=2
        l.insert(mixture(1.0), -1.0, 0.5, 1, 1);
        // Full: 2 models × 1 × (1 + 2 + 4) × 8 bytes.
        assert_eq!(l.memory_bytes(CovarianceType::Full), 2 * 8 * 7);
        // Diagonal: 2 × 1 × (1 + 2 + 2) × 8.
        assert_eq!(l.memory_bytes(CovarianceType::Diagonal), 2 * 8 * 5);
    }
}
