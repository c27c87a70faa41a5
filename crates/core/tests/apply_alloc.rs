//! Contract test for "the merge criteria and the group folds do not
//! allocate": `M_merge` / `M_split` / `M_remerge` work in a stack buffer
//! up to d = 16, a member's share of its group's statistics is folded in
//! place, and consolidation fills one score table per call — so what a
//! message allocates is its bookkeeping and the aggregates `Gaussian::new`
//! builds, not something per pair scored or per member folded.
//!
//! A simplex evaluation of the merge refiner rebuilds its candidate in
//! buffers the refiner keeps, so a refinement allocates the same however
//! many evaluations it runs.
//!
//! The same holds for the snapshot the root publishes after a message that
//! changes no group's membership: every member list is shared with the
//! previous snapshot, so the publish allocates and copies nothing per
//! member.
//!
//! A `Gaussian` is a handle to one immutable parameter block, so copying
//! one — into a member, an aggregate, a merged aggregate or a snapshot's
//! global mixture — allocates nothing; building one allocates its block
//! once more than its parameters.
//!
//! A counting allocator shim wraps the system allocator (as in
//! `crates/gmm/tests/estep_alloc.rs`); this is an integration test so it
//! owns the process-wide `#[global_allocator]`.

use cludistream::coordinator::{
    m_merge, m_remerge, m_split, Coordinator, CoordinatorConfig, MergeRefiner,
};
use cludistream::{Message, ModelId, SnapshotHandle};
use cludistream_gmm::{Gaussian, Mixture};
use cludistream_linalg::{Matrix, Vector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread (the harness runs tests
    /// concurrently); const-initialised with no destructor, so reading or
    /// bumping it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its new size).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    ALLOCATED_BYTES.with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every bound below is today's count plus a slack of 2: less than the 3
/// allocations (mean, covariance, factor) one deep copy of a 4-dimensional
/// full-covariance `Gaussian` made, so a copy that stops sharing fails.
const SLACK: u64 = 2;

/// A `WeightUpdate` that splits nothing reads 19 today — one `locate` list
/// and, three times (the reweight, the member it re-places taken out and
/// put back), the refreshed aggregate (`to_gaussian`: mean, covariance,
/// factor and the shared block). It read 16 while a `Gaussian` held its
/// parameters inline, and 46 with a temporary `SuffStats` per fold and six
/// vectors per criterion.
const WEIGHT_UPDATE_BOUND: u64 = 19 + SLACK;

/// A `NewModel` of five components that founds five groups and merges
/// five times reads 83 today: singleton groups, merged aggregates, one
/// score table with its caps and the list of pairs a pass still has to
/// score, and the bookkeeping. It read 118 while every member insert,
/// singleton seed and merged aggregate deep-copied a `Gaussian`, and
/// 2 116 scoring every pair before every merge at six allocations a score.
const NEW_MODEL_BOUND: u64 = 83 + SLACK;

/// A publish after a `WeightUpdate` that changes no membership reads 5
/// today (328 bytes) against 2 groups: the global mixture's lists, the
/// group list and the snapshot. It read 11 (1 176 bytes) while the global
/// mixture deep-copied each group's `Gaussian`, and 13 before that, when
/// it also copied every group's member list (16 bytes more a member).
const PUBLISH_BOUND: u64 = 5 + SLACK;

/// How much more a publish after a join to a group of 10 000 may ask for
/// than one after a join to a group of 10: one chunk of members (64 of
/// 16 bytes) plus the list of chunk pointers of 10 000 members (157 of 24
/// bytes). Copying the whole member list, it asked for 16 bytes a member
/// more, ≈ 160 KB at 10 000.
const JOIN_PUBLISH_SLACK: u64 = 64 * 16 + 157 * 24;

fn allocations(work: impl FnOnce()) -> u64 {
    allocated(work).0
}

/// Allocations and bytes asked for by `work`.
fn allocated(work: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    work();
    (ALLOCATIONS.with(Cell::get) - before.0, ALLOCATED_BYTES.with(Cell::get) - before.1)
}

/// A full-covariance Gaussian of dimension `d` around `center`.
fn gaussian(d: usize, center: f64) -> Gaussian {
    let mut cov = Matrix::from_diag(&vec![1.5; d]);
    for i in 1..d {
        cov[(i, i - 1)] = 0.2;
        cov[(i - 1, i)] = 0.2;
    }
    Gaussian::new(Vector::filled(d, center), cov).unwrap()
}

fn new_model(site: u32, model: u64, centers: &[f64], count: u64) -> Message {
    let mixture =
        Mixture::uniform(centers.iter().map(|&c| gaussian(4, c)).collect()).unwrap();
    Message::NewModel { site, model: ModelId(model), count, avg_ll: -1.0, mixture }
}

#[test]
fn cloning_a_gaussian_allocates_nothing_and_keeps_every_bit() {
    for d in [4, 16] {
        let g = gaussian(d, 1.5);
        let mut copy = None;
        let n = allocations(|| copy = Some(black_box(&g).clone()));
        assert_eq!(n, 0, "d = {d}: a clone allocated {n} times");
        let copy = copy.unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(copy.mean().as_slice()), bits(g.mean().as_slice()), "d = {d}: mean");
        assert_eq!(bits(copy.cov().as_slice()), bits(g.cov().as_slice()), "d = {d}: covariance");
        let x = Vector::filled(d, -0.25);
        assert_eq!(copy.log_pdf(&x).to_bits(), g.log_pdf(&x).to_bits(), "d = {d}: log density");
    }
}

#[test]
fn the_merge_criteria_allocate_nothing_up_to_sixteen_dimensions() {
    for d in [4, 16] {
        let (a, b) = (gaussian(d, 0.0), gaussian(d, 3.0));
        let n = allocations(|| {
            black_box(m_merge(black_box(&a), black_box(&b)));
            black_box(m_split(black_box(&a), black_box(&b)));
            black_box(m_remerge(black_box(&a), black_box(&b)));
        });
        assert_eq!(n, 0, "d = {d}: the three criteria allocated {n} times");
    }
}

/// Two groups: `members` one-component models together, and one far away.
fn two_groups(members: u32) -> Coordinator {
    let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
    for site in 0..members {
        c.apply(&new_model(site, 0, &[0.001 * f64::from(site % 7)], 100)).unwrap();
    }
    c.apply(&new_model(members, 0, &[500.0], 100)).unwrap();
    assert_eq!((c.group_count(), c.component_count()), (2, members as usize + 1));
    c
}

/// Allocations of a `WeightUpdate` that splits nothing, for a model whose
/// one component sits in a group of `members`.
fn weight_update_allocations(members: u32) -> u64 {
    let mut c = two_groups(members);
    let update = Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 1 };
    let n = allocations(|| c.apply(&update).unwrap());
    assert_eq!((c.group_count(), c.component_count()), (2, members as usize + 1), "no split");
    n
}

/// Allocations and bytes of the publish that follows a `WeightUpdate` of
/// the far singleton (a singleton never splits), the snapshot before it
/// already published: no group's membership changed in between.
fn publish_after_weight_update(members: u32) -> (u64, u64) {
    let mut c = two_groups(members);
    let handle = SnapshotHandle::new();
    handle.publish_from(&c).unwrap();
    let before = handle.load().unwrap();
    c.apply(&Message::WeightUpdate { site: members, model: ModelId(0), count_delta: 1 }).unwrap();
    let allocs = allocated(|| {
        handle.publish_from(&c).unwrap();
    });
    let after = handle.load().unwrap();
    assert_ne!(before.groups[1].weight, after.groups[1].weight, "the update was applied");
    for (b, a) in before.groups.iter().zip(&after.groups) {
        assert_eq!(a.members.len(), if a.id == 0 { members as usize } else { 1 });
        assert!(b.members.ptr_eq(&a.members), "group {}", a.id);
    }
    allocs
}

/// Bytes asked for by the publish that follows a `NewModel` whose one
/// component joins the group of `members`, the snapshot before it already
/// published.
fn publish_after_a_join(members: u32) -> u64 {
    let mut c = two_groups(members);
    let handle = SnapshotHandle::new();
    handle.publish_from(&c).unwrap();
    let before = handle.load().unwrap();
    c.apply(&new_model(members + 1, 0, &[0.0], 100)).unwrap();
    let (_, bytes) = allocated(|| {
        handle.publish_from(&c).unwrap();
    });
    let after = handle.load().unwrap();
    assert_eq!(after.groups[0].members.len(), members as usize + 1, "the model joined");
    assert!(after.groups[1].members.ptr_eq(&before.groups[1].members));
    bytes
}

#[test]
fn a_weight_update_allocates_the_same_in_a_group_of_ten_as_of_a_thousand() {
    let (ten, thousand) = (weight_update_allocations(10), weight_update_allocations(1000));
    assert_eq!(ten, thousand, "{ten} allocations against 10 members, {thousand} against 1000");
    assert!(ten <= WEIGHT_UPDATE_BOUND, "a WeightUpdate allocated {ten} times");
}

#[test]
fn a_new_model_that_merges_five_times_stays_under_its_bound() {
    let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
    for site in 0..8 {
        c.apply(&new_model(site, 0, &[f64::from(site) * 500.0], 100)).unwrap();
    }
    assert_eq!(c.group_count(), 8);
    let five = new_model(8, 0, &[-500.0, -1000.0, -1500.0, -2000.0, -2500.0], 100);
    let n = allocations(|| c.apply(&five).unwrap());
    assert_eq!((c.group_count(), c.merge_log().len()), (8, 5));
    assert!(n <= NEW_MODEL_BOUND, "a NewModel with five merges allocated {n} times");
}

#[test]
fn a_publish_after_a_weight_update_allocates_the_same_in_a_group_of_ten_as_of_a_thousand() {
    let (ten, thousand) = (publish_after_weight_update(10), publish_after_weight_update(1000));
    assert_eq!(
        ten, thousand,
        "(allocations, bytes) {ten:?} against 10 members, {thousand:?} against 1000"
    );
    assert!(ten.0 <= PUBLISH_BOUND, "a publish allocated {} times", ten.0);
}

#[test]
fn a_publish_after_a_join_copies_a_chunk_not_the_group() {
    let (ten, big) = (publish_after_a_join(10), publish_after_a_join(10_000));
    assert!(
        big.abs_diff(ten) < JOIN_PUBLISH_SLACK,
        "{ten} bytes after a join to 10 members, {big} after a join to 10 000"
    );
}

#[test]
fn a_refinement_allocates_the_same_for_40_evaluations_as_for_300() {
    for d in [1, 4, 9] {
        let (a, b) = (gaussian(d, 0.0), gaussian(d, 1.0));
        let refine = |max_evals| {
            let refiner = MergeRefiner { samples: 32, max_evals, seed: 9 };
            let mut evaluations = 0;
            let n = allocations(|| {
                evaluations = black_box(refiner.refine_detailed(0.7, &a, 0.3, &b)).2;
            });
            (n, evaluations)
        };
        let (short, short_evals) = refine(40);
        let (long, long_evals) = refine(300);
        assert!(
            long_evals >= 2 * short_evals,
            "d = {d}: {short_evals} vs {long_evals} evaluations"
        );
        assert_eq!(
            short, long,
            "d = {d}: {short} allocations in {short_evals} evaluations, {long} in {long_evals}"
        );
    }
}
