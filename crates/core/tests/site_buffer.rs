//! Contract tests for the site's chunk buffer: Theorem 3 prices it as
//! `M · d` floats, and that is what it is. `memory_bytes` reports the
//! bytes the buffer allocates, the buffer is allocated once when the site
//! is made, a record's `push` copies it into its slot and allocates
//! nothing, and a chunk that fits the current model is tested in the
//! buffer without allocating either.
//!
//! A counting allocator shim wraps the system allocator (as in
//! `crates/gmm/tests/estep_alloc.rs`); this is an integration test so it
//! owns the process-wide `#[global_allocator]`.

use cludistream::{ChunkOutcome, Config, RemoteSite};
use cludistream_gmm::{Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_rng::StdRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread (the harness runs tests
    /// concurrently); const-initialised with no destructor, so reading or
    /// bumping them never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The largest single request since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn saw(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|n| n.set(n.get().max(bytes)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        saw(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        saw(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `work` makes, and the largest of them.
fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64, usize) {
    LARGEST.with(|n| n.set(0));
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

/// The paper's defaults: d = 4, K = 5, M = 1567.
fn config() -> Config {
    Config::default()
}

/// A stationary stream of `n` records from a fixed 4-d mixture.
fn records(n: usize, seed: u64) -> Vec<Vector> {
    let mixture = Mixture::uniform(
        [-6.0, 0.0, 6.0]
            .iter()
            .map(|&c| Gaussian::spherical(Vector::filled(4, c), 1.0).expect("valid Gaussian"))
            .collect(),
    )
    .expect("valid mixture");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| mixture.sample(&mut rng)).collect()
}

#[test]
fn memory_bytes_is_the_buffer_the_site_allocates() {
    let (site, _, largest) = allocations(|| RemoteSite::new(config()).expect("valid config"));
    let (m, d) = (site.chunk_size(), config().dim);
    assert_eq!((m, d), (1567, 4));
    // No model and no event yet: the buffer is all Theorem 3 counts, and
    // it is the one `M × d` allocation the site made.
    assert_eq!(site.memory_bytes(), 8 * m * d);
    assert_eq!(largest, 8 * m * d, "the buffer is one allocation of 8·M·d bytes");
}

#[test]
fn buffering_and_testing_a_chunk_allocate_nothing() {
    let mut site = RemoteSite::new(config()).expect("valid config");
    let m = site.chunk_size();
    // The first chunk is clustered and the second tested, which grows the
    // test's scratch to a chunk's blocks.
    for x in records(2 * m, 1) {
        site.push(x).expect("a valid record");
    }
    let before = site.memory_bytes();
    let mut chunk = records(m, 2);
    let last = chunk.pop().expect("a chunk of records");
    let (_, pushed, _) = allocations(|| {
        for x in chunk {
            assert!(site.push(x).expect("a valid record").is_none());
        }
    });
    assert_eq!(pushed, 0, "{} records were buffered with {pushed} allocations", m - 1);
    let (outcome, tested, _) = allocations(|| site.push(last).expect("a valid record"));
    assert!(matches!(outcome, Some(ChunkOutcome::FitCurrent { .. })), "{outcome:?}");
    assert_eq!(tested, 0, "a chunk that fits the current model was tested with allocations");
    assert_eq!(site.memory_bytes(), before);
}
