//! Regression test for hostile fleet telemetry: a peer that sends a fresh
//! name in every delta must not grow the node that decodes it.
//!
//! Names cross the wire as strings. Decoding maps each one onto its
//! catalogue entry, so an undeclared name, or a declared one in another
//! kind's section, is skipped and counted as `obs.unknown_series` instead
//! of becoming a registry key. 10 000 deltas, each carrying a fresh counter
//! name, a fresh span name and a gauge sent as a counter next to a declared
//! counter and gauge (so the fleet derives, and must intern rather than
//! leak, their `site0.` names every time), go through
//! `TelemetryDelta::decode` → `FleetAggregator::apply`; afterwards the live
//! heap is back at its baseline, the counter grew by exactly 30 000 and
//! the exposition shows the same `# TYPE` families.
//!
//! A counting allocator shim wraps the system allocator (as in
//! `crates/gmm/tests/estep_alloc.rs`), here tracking live bytes; this is an
//! integration test so it owns the process-wide `#[global_allocator]`.

use cludistream_obs::catalogue::{EM_ESTEP_BLOCKS, HB_RTT_US};
use cludistream_obs::{FleetAggregator, TelemetryDelta, TELEMETRY_VERSION};
use cludistream_wire::ByteBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct CountingAlloc;

thread_local! {
    /// Bytes allocated and not yet freed by *this* thread (the harness
    /// runs tests concurrently); const-initialised with no destructor, so
    /// reading or bumping it never allocates itself.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as i64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + new_size as i64 - layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// A delta from site 0 in the wire layout: a fresh counter name, a
/// declared gauge in the counter section, and a span under a fresh name,
/// beside a declared counter and a declared gauge.
fn hostile(i: u32) -> ByteBuf {
    let mut buf = ByteBuf::new();
    buf.put_u8(TELEMETRY_VERSION);
    buf.put_u32_le(0);
    buf.put_u64_le(u64::from(i));
    buf.put_u32_le(3); // counters
    buf.put_var_str(&format!("hostile.counter_{i}"));
    buf.put_u64_le(1);
    buf.put_var_str("coord.groups");
    buf.put_u64_le(1);
    buf.put_var_str("em.estep_blocks");
    buf.put_u64_le(1);
    buf.put_u32_le(1); // gauges
    buf.put_var_str("coord.groups");
    buf.put_f64_le(f64::from(i));
    buf.put_u32_le(0); // observations
    buf.put_u32_le(1); // spans
    for id in [1, 1, 0] {
        buf.put_u64_le(id);
    }
    buf.put_var_str(&format!("hostile.span_{i}"));
    buf.put_u32_le(0);
    for us in [0, 0, 0] {
        buf.put_u64_le(us);
    }
    buf.put_u32_le(0); // flight
    buf
}

fn fold(fleet: &FleetAggregator, bytes: &ByteBuf) {
    let delta = TelemetryDelta::decode(&mut bytes.reader()).expect("well-formed delta");
    fleet.apply(&delta);
}

fn families(fleet: &FleetAggregator) -> BTreeSet<String> {
    let text = fleet.prometheus_text();
    text.lines().filter(|l| l.starts_with("# TYPE ")).map(str::to_owned).collect()
}

#[test]
fn fresh_names_neither_grow_the_node_nor_the_exposition() {
    let fleet = FleetAggregator::new();
    // Warm-up: a real delta and one hostile delta create every registry
    // entry and per-site name the round will ever hold.
    let real = TelemetryDelta {
        counters: vec![(EM_ESTEP_BLOCKS, 7)],
        observations: vec![(HB_RTT_US, vec![120])],
        ..TelemetryDelta::default()
    };
    fold(&fleet, &real.encode());
    fold(&fleet, &hostile(0));
    let unknown_before = fleet.registry().counter_value("obs.unknown_series");
    let families_before = families(&fleet);

    let baseline = live_bytes();
    for i in 1..=10_000 {
        let bytes = hostile(i);
        fold(&fleet, &bytes);
    }
    let grown = live_bytes() - baseline;

    assert_eq!(grown, 0, "10 000 hostile deltas left {grown} live bytes behind");
    assert_eq!(
        fleet.registry().counter_value("obs.unknown_series") - unknown_before,
        30_000,
        "three skipped names per delta"
    );
    assert_eq!(families(&fleet), families_before, "the exposition grew a family");
    assert!(fleet.spans().is_empty(), "a span under an undeclared name was kept");
}
