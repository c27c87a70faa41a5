#![warn(missing_docs, unreachable_pub)]

//! Deterministic scoped-thread parallelism utilities.
//!
//! Two fan-out shapes cover everything the workspace parallelizes:
//!
//! - [`par_block_map`] — a fixed number of *block indices* sharded over a
//!   bounded worker pool as contiguous ranges, with per-worker scratch
//!   state. This is the shape of batched scoring: the block size (and
//!   therefore each block's result) is independent of the worker count,
//!   and results are returned in block order, so any block-ordered
//!   reduction over them is bit-identical for every worker count —
//!   including 1, which runs inline on the caller without spawning.
//! - [`par_block_reduce`] — the same partition for blocks that each fill
//!   a flat `f64` accumulator and borrow a disjoint piece of the caller's
//!   buffers; the accumulators are summed left to right in block order
//!   into one running total. This is the shape of both passes of the EM
//!   engine's E-step, and with one worker it allocates nothing.
//!
//! The crate is dependency-free and rng-free: nothing here may perturb
//! the workspace's deterministic simulations. Worker panics are
//! propagated to the caller with their original payload via
//! [`std::panic::resume_unwind`], so a failing assertion inside a worker
//! reads the same as it would sequentially.

use std::panic::resume_unwind;

/// Resolves a requested thread count: `0` means "use the machine's
/// available parallelism" (1 when it cannot be queried), any other value
/// is taken as-is.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Evaluates `f(scratch, block)` for every block index in `0..blocks`,
/// returning the results in block order.
///
/// Blocks are sharded over at most `workers` scoped threads as contiguous
/// index ranges (worker 0 gets the first range, worker 1 the next, …).
/// Each worker owns one scratch value produced by `init`, threaded
/// mutably through its blocks — reusable buffers never cross threads.
///
/// Determinism contract: the partition affects only *where* a block runs,
/// never its index or its result, and the output order is always block
/// order. A caller that reduces the returned vector front-to-back
/// therefore computes a bit-identical result for every `workers` value.
/// With `workers <= 1` (or a single block) everything runs inline on the
/// calling thread — no spawn, no `Send` round-trip cost.
///
/// A panic inside any worker is re-raised on the caller with the
/// worker's original panic payload.
pub fn par_block_map<S, R, I, F>(blocks: usize, workers: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if blocks == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, blocks);
    if workers == 1 {
        let mut scratch = init();
        return (0..blocks).map(|b| f(&mut scratch, b)).collect();
    }
    // Contiguous, near-even ranges: the first `blocks % workers` workers
    // take one extra block.
    let base = blocks / workers;
    let extra = blocks % workers;
    std::thread::scope(|scope| {
        let (init, f) = (&init, &f);
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let range = start..start + len;
            start += len;
            handles.push(scope.spawn(move || {
                let mut scratch = init();
                range.map(|b| f(&mut scratch, b)).collect::<Vec<R>>()
            }));
        }
        let mut out = Vec::with_capacity(blocks);
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    })
}

/// Fills one `running.len()`-wide accumulator per block with
/// `f(scratch, block, lend, acc)` — `acc` arrives zeroed, `lend` is the
/// block's item of `lends` (typically a disjoint `&mut` chunk of a buffer
/// the caller owns) — and leaves in `running` their element-wise sum,
/// folded strictly left to right in block order: block 0's accumulator is
/// copied, every later one is added.
///
/// Determinism contract: as for [`par_block_map`], the partition decides
/// only *where* a block runs. Every block owns its accumulator and the
/// fold is sequential, so `running` is bit-identical for every `workers`
/// value.
///
/// The calling thread works the last range itself with the caller's
/// `scratch`; every other worker builds its own with `init`. `slots` is
/// storage the helper sizes and reuses across calls: with `workers <= 1`
/// (or a single block) it holds one accumulator, nothing is spawned and
/// nothing is allocated once `slots` has grown; otherwise it holds one
/// accumulator per block. No blocks leaves `running` untouched.
///
/// A panic inside any worker is re-raised on the caller with the
/// worker's original panic payload.
pub fn par_block_reduce<S, T, L, I, F>(
    lends: L,
    workers: usize,
    scratch: &mut S,
    init: I,
    slots: &mut Vec<f64>,
    running: &mut [f64],
    f: F,
) where
    T: Send,
    L: ExactSizeIterator<Item = T>,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T, &mut [f64]) + Sync,
{
    let blocks = lends.len();
    let width = running.len();
    if blocks == 0 || width == 0 {
        return;
    }
    let workers = workers.clamp(1, blocks);
    if workers == 1 {
        slots.resize(width, 0.0);
        for (b, lend) in lends.enumerate() {
            slots.fill(0.0);
            f(scratch, b, lend, slots);
            fold_into(running, slots, b == 0);
        }
        return;
    }
    slots.clear();
    slots.resize(blocks * width, 0.0);
    let base = blocks / workers;
    let extra = blocks % workers;
    std::thread::scope(|scope| {
        let (init, f) = (&init, &f);
        let mut work = lends.zip(slots.chunks_mut(width)).enumerate();
        let mut handles = Vec::with_capacity(workers - 1);
        for w in 0..workers - 1 {
            let part: Vec<_> = work.by_ref().take(base + usize::from(w < extra)).collect();
            handles.push(scope.spawn(move || {
                let mut scratch = init();
                for (b, (lend, acc)) in part {
                    f(&mut scratch, b, lend, acc);
                }
            }));
        }
        for (b, (lend, acc)) in work {
            f(scratch, b, lend, acc);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });
    for (b, acc) in slots.chunks(width).enumerate() {
        fold_into(running, acc, b == 0);
    }
}

/// One step of [`par_block_reduce`]'s left fold.
fn fold_into(running: &mut [f64], acc: &[f64], first: bool) {
    if first {
        running.copy_from_slice(acc);
    } else {
        for (r, a) in running.iter_mut().zip(acc) {
            *r += a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn block_map_matches_sequential_for_any_worker_count() {
        let sequential: Vec<u64> = (0..37u64).map(|b| b * b + 7).collect();
        for workers in [1usize, 2, 3, 4, 8, 64] {
            let out = par_block_map(37, workers, || (), |_, b| (b as u64) * (b as u64) + 7);
            assert_eq!(out, sequential, "workers={workers}");
        }
    }

    #[test]
    fn block_map_zero_blocks_is_empty() {
        let out: Vec<u8> = par_block_map(0, 4, || (), |_: &mut (), _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn block_map_creates_one_scratch_per_worker() {
        let created = AtomicUsize::new(0);
        let out = par_block_map(
            16,
            4,
            || {
                created.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |scratch, b| {
                // The scratch is genuinely threaded through each worker's
                // blocks.
                *scratch += 1;
                (*scratch, b)
            },
        );
        assert_eq!(created.load(Ordering::SeqCst), 4);
        // 4 workers x 4 blocks each: per-worker counters restart at 1.
        let restarts = out.iter().filter(|(c, _)| *c == 1).count();
        assert_eq!(restarts, 4);
        // Block indices still in order.
        for (i, (_, b)) in out.iter().enumerate() {
            assert_eq!(*b, i);
        }
    }

    #[test]
    fn block_map_inline_when_single_worker() {
        // With workers=1 the closure runs on the calling thread — observable
        // through a !Send-friendly pattern: thread id equality.
        let caller = std::thread::current().id();
        let out = par_block_map(5, 1, || (), |_, b| (std::thread::current().id(), b));
        for (id, _) in &out {
            assert_eq!(*id, caller);
        }
    }

    #[test]
    #[should_panic(expected = "block 3 exploded")]
    fn block_map_propagates_worker_panic_payload() {
        let _ = par_block_map(8, 4, || (), |_, b| {
            if b == 3 {
                panic!("block {b} exploded");
            }
            b
        });
    }

    /// Block `b` lends `out[b]`, writes its index there, and accumulates
    /// two terms whose sum depends on the order they are added in.
    fn reduce_with(workers: usize, blocks: usize) -> (Vec<usize>, Vec<f64>, usize) {
        let mut out = vec![usize::MAX; blocks];
        let mut slots = Vec::new();
        let mut running = vec![f64::NAN; 2];
        let mut own_scratch = 0usize;
        par_block_reduce(
            out.iter_mut(),
            workers,
            &mut own_scratch,
            || 0usize,
            &mut slots,
            &mut running,
            |scratch, b, lend, acc| {
                assert_eq!(acc, [0.0, 0.0], "accumulators arrive zeroed");
                *scratch += 1;
                *lend = b;
                acc[0] += 0.1 * (b as f64 + 1.0);
                acc[1] += 1e16 / (b as f64 + 1.0);
            },
        );
        (out, running, own_scratch)
    }

    #[test]
    fn block_reduce_is_a_left_fold_in_block_order_for_any_worker_count() {
        let blocks = 23;
        let mut expect = [0.1, 1e16];
        for b in 1..blocks {
            expect[0] += 0.1 * (b as f64 + 1.0);
            expect[1] += 1e16 / (b as f64 + 1.0);
        }
        for workers in [0usize, 1, 2, 3, 4, 8, 64] {
            let (out, running, _) = reduce_with(workers, blocks);
            assert_eq!(out, (0..blocks).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(running[0].to_bits(), expect[0].to_bits(), "workers={workers}");
            assert_eq!(running[1].to_bits(), expect[1].to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn block_reduce_caller_works_the_last_range_with_its_own_scratch() {
        // 10 blocks over 4 workers: ranges of 3, 3, 2, 2.
        assert_eq!(reduce_with(4, 10).2, 2);
        assert_eq!(reduce_with(3, 10).2, 3);
        // One worker: every block runs on the caller, and the storage is
        // a single accumulator however many blocks there are.
        assert_eq!(reduce_with(1, 10).2, 10);
        let mut slots = Vec::new();
        let mut running = [0.0];
        par_block_reduce(0..10, 1, &mut (), || (), &mut slots, &mut running, |_, b, _, acc| {
            acc[0] = b as f64;
        });
        assert_eq!(slots.len(), 1);
        assert_eq!(running[0], 45.0);
    }

    #[test]
    fn block_reduce_without_blocks_leaves_running_untouched() {
        let mut running = [7.0];
        par_block_reduce(0..0, 4, &mut (), || (), &mut Vec::new(), &mut running, |_, _, _, _| {});
        assert_eq!(running[0], 7.0);
    }

    #[test]
    #[should_panic(expected = "block 5 exploded")]
    fn block_reduce_propagates_worker_panic_payload() {
        let mut running = [0.0];
        par_block_reduce(0..8, 4, &mut (), || (), &mut Vec::new(), &mut running, |_, b, _, _| {
            if b == 5 {
                panic!("block {b} exploded");
            }
        });
    }

    #[test]
    fn resolve_workers_contract() {
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
        assert!(resolve_workers(0) >= 1);
    }
}
