//! Causal distributed tracing: span trees that follow one chunk from site
//! ingestion to the coordinator's group update.
//!
//! Identifiers are allocated **deterministically**: a [`TraceId`] encodes
//! `(site, chunk index)` and a [`SpanId`] encodes `(node, per-node
//! sequence)`, so traces of seeded runs are byte-identical across machines
//! and runs — no wall clock, no global counters shared between nodes.
//!
//! Spans are stamped with the discrete-event simulator's clock. Because
//! the simulator never advances time *inside* a node callback, pure
//! compute (an EM fit, a simplex refinement) would always appear as a
//! zero-width span; such spans instead carry a deterministic **virtual
//! cost** ([`SpanRecord::cost_us`]) derived from their iteration/eval
//! counts via [`em_cost_us`] / [`simplex_cost_us`]. Exporters and the
//! critical-path extractor report `max(sim width, cost)` so compute and
//! wire time are comparable on one axis.

use crate::catalogue::SpanName;

/// Bits reserved for the per-node sequence / per-site chunk index in the
/// packed 64-bit identifiers. 40 bits ≈ 10¹² spans per node.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1u64 << SEQ_BITS) - 1;

/// Identity of one end-to-end trace: the processing of one chunk at one
/// site, packed as `(site << 40) | chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The trace of `site`'s chunk number `chunk`.
    pub fn new(site: u32, chunk: u64) -> TraceId {
        TraceId(((site as u64) << SEQ_BITS) | (chunk & SEQ_MASK))
    }
}

/// Identity of one span, packed as `(node << 40) | seq` where `seq` is the
/// emitting node's private allocation counter (starting at 1; 0 is the
/// reserved null id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id returned by disabled recorders.
    pub(crate) const NONE: SpanId = SpanId(0);

    /// Span `seq` of `node`.
    pub fn new(node: u32, seq: u64) -> SpanId {
        SpanId(((node as u64) << SEQ_BITS) | (seq & SEQ_MASK))
    }
}

/// The trace context a wire frame carries: which trace the payload belongs
/// to and which (site-side) span covers its time on the wire. Retransmits
/// and fault-layer duplicates keep the originating context, so the whole
/// delivery saga lands under one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The owning trace.
    pub trace: TraceId,
    /// The span covering the frame's wire lifetime.
    pub span: SpanId,
}

/// A parent scope handed to a component that records child spans without
/// owning trace propagation itself (e.g. the coordinator recording a
/// simplex-refine span under the apply span of the message it is
/// processing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanScope {
    /// The owning trace.
    pub trace: TraceId,
    /// Parent span for children recorded under this scope.
    pub parent: SpanId,
    /// Node id to allocate child spans from.
    pub node: u32,
}

/// One finished (or open, until closed) span of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Declared span name (e.g. `site.chunk`, `wire.synopsis`,
    /// `coord.simplex`).
    pub name: SpanName,
    /// Emitting node (site index, or the coordinator's node id).
    pub node: u32,
    /// Simulated start time, microseconds.
    pub start_us: u64,
    /// Simulated end time, microseconds (`== start_us` for instants and
    /// for spans closed later via `Recorder::close_span`).
    pub end_us: u64,
    /// Deterministic virtual compute cost, microseconds (0 for pure wire
    /// or marker spans).
    pub cost_us: u64,
}

impl SpanRecord {
    /// The duration exporters report: simulated width or virtual compute
    /// cost, whichever dominates.
    pub(crate) fn duration_us(&self) -> u64 {
        (self.end_us.saturating_sub(self.start_us)).max(self.cost_us)
    }
}

/// Virtual cost of one EM iteration over one chunk, microseconds. A fixed
/// calibration constant: EM cost is dominated by the E-step's `M · K`
/// density evaluations, and the *relative* attribution (EM vs simplex vs
/// wire) is what the critical-path profile reports.
pub(crate) const EM_ITER_COST_US: u64 = 40;

/// Virtual cost of one downhill-simplex objective evaluation,
/// microseconds (each evaluates the Monte-Carlo L1 accuracy loss `l(x)`
/// of one candidate Gaussian at the merge's fixed points — far cheaper
/// than an EM iteration over a chunk).
pub(crate) const SIMPLEX_EVAL_COST_US: u64 = 5;

/// Deterministic virtual cost of an EM fit that ran `iters` iterations.
pub fn em_cost_us(iters: u64) -> u64 {
    iters.saturating_mul(EM_ITER_COST_US)
}

/// Deterministic virtual cost of a simplex refinement that performed
/// `evals` objective evaluations.
pub fn simplex_cost_us(evals: u64) -> u64 {
    evals.saturating_mul(SIMPLEX_EVAL_COST_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_pack_owner_and_sequence() {
        assert_eq!(TraceId::new(3, 17).0, (3 << 40) | 17);
        let s = SpanId::new(7, 42);
        assert_eq!(s.0, (7 << 40) | 42);
        assert_ne!(s, SpanId::NONE);
    }

    #[test]
    fn ids_are_distinct_across_nodes_and_sequences() {
        let a = SpanId::new(0, 1);
        let b = SpanId::new(1, 1);
        let c = SpanId::new(0, 2);
        assert!(a != b && a != c && b != c);
    }

    #[test]
    fn duration_is_width_or_cost() {
        let mut r = SpanRecord {
            trace: TraceId::new(0, 0),
            span: SpanId::new(0, 1),
            parent: None,
            name: SpanName("x"),
            node: 0,
            start_us: 100,
            end_us: 130,
            cost_us: 0,
        };
        assert_eq!(r.duration_us(), 30);
        r.cost_us = 400;
        assert_eq!(r.duration_us(), 400);
    }

    #[test]
    fn cost_helpers_scale_linearly() {
        assert_eq!(em_cost_us(0), 0);
        assert_eq!(em_cost_us(3), 3 * EM_ITER_COST_US);
        assert_eq!(simplex_cost_us(10), 10 * SIMPLEX_EVAL_COST_US);
    }
}
