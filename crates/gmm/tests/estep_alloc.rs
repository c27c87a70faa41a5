//! Contract tests for "the batch loops do not allocate per block or per
//! record". In an EM fit the table, normalizers, accumulators and kernel
//! scratch are created once per fit, so what one more iteration allocates
//! is the M-step's K Gaussians — the same number whether the chunk is 2
//! blocks or 12. Batched scoring writes every block straight into the
//! output columns, so a 12-block batch allocates as often as a 2-block
//! one.
//!
//! A counting allocator shim wraps the system allocator (as in
//! `crates/obs/tests/noop_alloc.rs`); this is an integration test so it
//! owns the process-wide `#[global_allocator]`.

use cludistream_gmm::{fit_em, score, Batch, CovarianceType, EmConfig, Gaussian, Mixture, BLOCK};
use cludistream_linalg::Vector;
use cludistream_rng::StdRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread (the harness runs tests
    /// concurrently); const-initialised with no destructor, so reading or
    /// bumping it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one `tol = 0` fit that runs exactly `max_iters`
/// iterations.
fn fit_allocations(data: &[Vector], covariance: CovarianceType, max_iters: usize) -> u64 {
    let config = EmConfig { k: 3, max_iters, tol: 0.0, covariance, seed: 5, ..Default::default() };
    let before = ALLOCATIONS.with(Cell::get);
    let fit = fit_em(data, &config).expect("EM fits");
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(fit.iterations, max_iters);
    after - before
}

/// Three well-separated unit blobs in `d` dimensions.
fn three_blobs(d: usize) -> Mixture {
    Mixture::uniform(
        [-8.0, 0.0, 8.0]
            .iter()
            .map(|&c| Gaussian::spherical(Vector::filled(d, c), 1.0).expect("valid Gaussian"))
            .collect(),
    )
    .expect("valid mixture")
}

#[test]
fn an_iteration_allocates_the_same_for_two_blocks_as_for_twelve() {
    // d = 3, and the paper's d = 4.
    for d in [3, 4] {
        // Three blobs and K = 3: no component starves, so no M-step takes
        // the (allocating) rescue path on either size.
        let gen = three_blobs(d);
        let mut rng = StdRng::seed_from_u64(11);
        let large: Vec<Vector> = (0..3000).map(|_| gen.sample(&mut rng)).collect();
        let small = &large[..300];
        for covariance in [CovarianceType::Full, CovarianceType::Diagonal] {
            let eight_iterations = |data: &[Vector]| {
                fit_allocations(data, covariance, 10) - fit_allocations(data, covariance, 2)
            };
            let (two_blocks, twelve_blocks) = (eight_iterations(small), eight_iterations(&large));
            assert!(two_blocks > 0, "the M-step builds K Gaussians per iteration");
            assert_eq!(
                two_blocks, twelve_blocks,
                "d = {d}, {covariance:?}: eight iterations allocated {two_blocks} times over \
                 2 blocks but {twelve_blocks} times over 12"
            );
        }
    }
}

/// Allocations of one `score` call over `batch`.
fn score_allocations(mixture: &Mixture, batch: &Batch) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let scores = score(mixture, batch, 1).expect("dimensions agree");
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(scores.len(), batch.len());
    after - before
}

#[test]
fn scoring_allocates_the_same_for_two_blocks_as_for_twelve() {
    for d in [3, 4] {
        let mixture = three_blobs(d);
        let mut rng = StdRng::seed_from_u64(12);
        // 12 blocks and 2 blocks, the last block of each ragged.
        let records: Vec<Vector> = (0..12 * BLOCK - 9).map(|_| mixture.sample(&mut rng)).collect();
        let (small, large) =
            (Batch::from_records(&records[..BLOCK + 7]), Batch::from_records(&records));
        let (two_blocks, twelve_blocks) =
            (score_allocations(&mixture, &small), score_allocations(&mixture, &large));
        assert_eq!(
            two_blocks, twelve_blocks,
            "d = {d}: scoring allocated {two_blocks} times over 2 blocks but {twelve_blocks} \
             times over 12"
        );
    }
}
