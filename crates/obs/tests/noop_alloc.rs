//! Contract test for "instrumentation costs nothing when disabled": with
//! the no-op recorder installed, the whole record surface (counters,
//! gauges, histograms, events, spans) performs **zero heap allocations**.
//!
//! A counting allocator shim wraps the system allocator; the test measures
//! the calling thread's allocation count across a burst of no-op record
//! calls. This is an
//! integration test so it owns the process-wide `#[global_allocator]`.

use cludistream_obs::catalogue::{COORD_GROUPS, EM_ESTEP_BLOCKS, EM_ITERS_PER_FIT, SITE_CHUNK_NS};
use cludistream_obs::{Event, NopRecorder, Obs, Recorder, Verdict};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. Per thread, because the two
    /// tests (and the harness around them) run concurrently and a global
    /// count would see the neighbours; const-initialised with no
    /// destructor, so reading or bumping it never allocates itself.
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn noop_recorder_never_allocates() {
    // Warm up the shared no-op Arc (its first construction allocates once,
    // by design) and build the events outside the measured region.
    let obs = Obs::noop();
    let events = [
        Event::EmConverged { iters: 10, delta_ll: 1e-5 },
        Event::ChunkTested {
            site: 0,
            chunk: 1,
            avg_ll: -2.0,
            threshold: 0.1,
            verdict: Verdict::FitCurrent,
        },
        Event::SynopsisSent { site: 0, bytes: 628 },
    ];

    let before = allocations();
    for i in 0..1000u64 {
        obs.counter(EM_ESTEP_BLOCKS, i);
        obs.gauge(COORD_GROUPS, i as f64);
        obs.observe(SITE_CHUNK_NS, i);
        for e in &events {
            obs.event(e);
        }
        obs.set_sim_time(i);
        let _span = obs.span(SITE_CHUNK_NS);
    }
    // Cloning the shared handle must also be allocation-free.
    let clone = obs.clone();
    clone.counter(EM_ESTEP_BLOCKS, 1);
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "no-op telemetry path allocated {} times",
        after - before
    );
}

#[test]
fn monomorphized_noop_recorder_never_allocates() {
    // The statically-dispatched form used inside `gmm::em`'s hot loop.
    fn instrumented<R: Recorder + ?Sized>(rec: &R) {
        for i in 0..1000u64 {
            rec.counter(EM_ESTEP_BLOCKS, i);
            rec.observe(EM_ITERS_PER_FIT, i);
        }
    }
    let before = allocations();
    instrumented(&NopRecorder);
    let after = allocations();
    assert_eq!(after - before, 0);
}
