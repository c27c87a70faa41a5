use crate::remote::model_list::ModelId;

/// One row of the event table: the model that governed the stream from
/// `start_chunk` to `end_chunk` inclusive (paper Sec. 5.1: "<start time,
/// end time, model ID> triplet", with chunk indices as the time unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventEntry {
    /// First chunk governed by the model.
    pub start_chunk: u64,
    /// Last chunk governed by the model (inclusive).
    pub end_chunk: u64,
    /// The governing model.
    pub model: ModelId,
}

/// The event table recording the evolving behaviour of the stream: closed
/// spans for past regimes plus one open span for the model currently in
/// charge. Backs the horizon/evolving-analysis queries of Sec. 7. Like
/// the paper's (Sec. 5.1), it keeps every span it ever closed.
#[derive(Debug, Clone, Default)]
pub struct EventTable {
    closed: Vec<EventEntry>,
    /// `(start_chunk, model)` of the regime currently in progress.
    open: Option<(u64, ModelId)>,
}

impl EventTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Opens a new span for `model` starting at `chunk`, closing any span
    /// in progress at `chunk - 1`.
    pub(crate) fn switch_to(&mut self, model: ModelId, chunk: u64) {
        if let Some((start, prev)) = self.open.take() {
            debug_assert!(chunk > start, "switch must advance time");
            self.closed.push(EventEntry { start_chunk: start, end_chunk: chunk - 1, model: prev });
        }
        self.open = Some((chunk, model));
    }

    /// All entries including the open one, materialized up to `now_chunk`
    /// (the open span is reported as ending at `now_chunk`).
    pub fn entries_at(&self, now_chunk: u64) -> Vec<EventEntry> {
        let mut out = self.closed.clone();
        if let Some((start, model)) = self.open {
            out.push(EventEntry { start_chunk: start, end_chunk: now_chunk.max(start), model });
        }
        out
    }

    /// Models governing any chunk in `[from, to]` (inclusive), with the
    /// number of chunks of overlap — the evolving-analysis query of Sec. 7.
    /// `now_chunk` bounds the open span.
    pub(crate) fn query(&self, from: u64, to: u64, now_chunk: u64) -> Vec<(ModelId, u64)> {
        assert!(from <= to, "query range inverted");
        self.entries_at(now_chunk)
            .into_iter()
            .filter_map(|e| {
                let lo = e.start_chunk.max(from);
                let hi = e.end_chunk.min(to);
                (lo <= hi).then(|| (e.model, hi - lo + 1))
            })
            .collect()
    }

    /// Snapshot parts: the closed spans and the open `(start, model)`.
    pub(crate) fn parts(&self) -> (&[EventEntry], Option<(u64, ModelId)>) {
        (&self.closed, self.open)
    }

    /// Rebuilds a table from snapshot parts.
    pub(crate) fn from_parts(closed: Vec<EventEntry>, open: Option<(u64, ModelId)>) -> Self {
        EventTable { closed, open }
    }

    /// Approximate memory footprint: 3 u64-sized fields per row.
    pub(crate) fn memory_bytes(&self) -> usize {
        24 * (self.closed.len() + usize::from(self.open.is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switching_closes_previous_span() {
        let mut t = EventTable::new();
        t.switch_to(ModelId(0), 0);
        assert_eq!(t.open.map(|(_, m)| m), Some(ModelId(0)));
        assert!(t.closed.is_empty());
        t.switch_to(ModelId(1), 5);
        assert_eq!(t.open.map(|(_, m)| m), Some(ModelId(1)));
        assert_eq!(
            t.closed,
            [EventEntry { start_chunk: 0, end_chunk: 4, model: ModelId(0) }]
        );
        assert_eq!(t.closed.len(), 1);
    }

    #[test]
    fn entries_at_materializes_open_span() {
        let mut t = EventTable::new();
        t.switch_to(ModelId(0), 0);
        t.switch_to(ModelId(1), 3);
        let all = t.entries_at(10);
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], EventEntry { start_chunk: 3, end_chunk: 10, model: ModelId(1) });
    }

    #[test]
    fn query_reports_overlaps() {
        let mut t = EventTable::new();
        t.switch_to(ModelId(0), 0); // chunks 0..=4
        t.switch_to(ModelId(1), 5); // chunks 5..=9
        t.switch_to(ModelId(2), 10); // open
        // Window [3, 7]: 2 chunks of model 0, 3 of model 1.
        let hits = t.query(3, 7, 12);
        assert_eq!(hits, vec![(ModelId(0), 2), (ModelId(1), 3)]);
        // Window [11, 12]: only the open span.
        assert_eq!(t.query(11, 12, 12), vec![(ModelId(2), 2)]);
        // Disjoint past window.
        assert_eq!(t.query(0, 0, 12), vec![(ModelId(0), 1)]);
    }

    #[test]
    fn query_empty_table() {
        let t = EventTable::new();
        assert!(t.query(0, 10, 10).is_empty());
        assert_eq!(t.open.map(|(_, m)| m), None);
    }

    #[test]
    fn span_length() {
        let e = EventEntry { start_chunk: 2, end_chunk: 6, model: ModelId(0) };
        assert_eq!(e.end_chunk - e.start_chunk + 1, 5);
    }

    #[test]
    fn re_switching_to_same_model_tracks_spans() {
        // Alternating distributions (the case the paper's multi-test
        // strategy targets): A, B, A again.
        let mut t = EventTable::new();
        t.switch_to(ModelId(0), 0);
        t.switch_to(ModelId(1), 4);
        t.switch_to(ModelId(0), 8);
        let all = t.entries_at(9);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].model, ModelId(0));
        assert_eq!(all[2].model, ModelId(0));
        // Model 0 governs 4 + 2 = 6 chunks of [0, 9].
        let total_m0: u64 =
            t.query(0, 9, 9).iter().filter(|(m, _)| *m == ModelId(0)).map(|(_, c)| c).sum();
        assert_eq!(total_m0, 6);
    }

    #[test]
    fn memory_accounting() {
        let mut t = EventTable::new();
        assert_eq!(t.memory_bytes(), 0);
        t.switch_to(ModelId(0), 0);
        assert_eq!(t.memory_bytes(), 24);
        t.switch_to(ModelId(1), 1);
        assert_eq!(t.memory_bytes(), 48);
    }

    #[test]
    #[should_panic(expected = "query range inverted")]
    fn inverted_query_panics() {
        EventTable::new().query(5, 2, 10);
    }
}
