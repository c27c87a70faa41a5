//! Regression test for the first hole ROADMAP item 1 names: `decode_mixture`
//! computed its body length from the peer's `K` and `d` with unchecked
//! arithmetic — a panic in a debug build, a wrapped (small) length in
//! release, after which `Vec::with_capacity(K)` was sized by the peer.
//!
//! A hostile header must be an `Err`, in debug and release alike, and must
//! not make the decoder ask the allocator for more than the input's order.
//! The allocator shim (as in `crates/obs/tests/noop_alloc.rs`, recording
//! the largest request instead of the count) is why this is an integration
//! test: it owns the process-wide `#[global_allocator]`.

use cludistream_gmm::codec::decode_mixture;
use cludistream_gmm::GmmError;
use cludistream_wire::ByteBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestAlloc;

thread_local! {
    /// Largest single request made by *this* thread; const-initialised with
    /// no destructor, so reading or raising it never allocates itself.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn saw(bytes: usize) {
    LARGEST.with(|n| n.set(n.get().max(bytes)));
}

unsafe impl GlobalAlloc for LargestAlloc {
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
static GLOBAL: LargestAlloc = LargestAlloc;

#[test]
fn hostile_k_and_d_are_an_error_and_allocate_nothing_of_their_size() {
    for tag in [0u8, 1] {
        for (k, d) in [(u32::MAX, u32::MAX), (1, u32::MAX), (u32::MAX, 1)] {
            let mut header = ByteBuf::new();
            header.put_u8(tag);
            header.put_u32_le(k);
            header.put_u32_le(d);
            assert_eq!(header.len(), 9);

            LARGEST.with(|n| n.set(0));
            let decoded = decode_mixture(&mut header.reader());
            let largest = LARGEST.with(Cell::get);

            assert!(
                matches!(decoded, Err(GmmError::Codec(_))),
                "tag {tag} K {k} d {d}: {decoded:?}"
            );
            assert!(
                largest <= 16 * header.len(),
                "tag {tag} K {k} d {d}: a 9-byte input made the decoder request {largest} bytes"
            );
        }
    }
}
