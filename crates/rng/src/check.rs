//! A seeded property-test harness.
//!
//! The workspace's property tests (linalg kernels, generators, the wire
//! codec, the simulator's event ordering) run each invariant against many
//! pseudo-random cases. Unlike an external property-testing framework this
//! harness has no shrinking — but every case is derived deterministically
//! from the property's name and case index, and the failing seed is
//! printed on panic, so any failure replays exactly with
//! `CLUDI_PROP_SEED=<seed>`.
//!
//! ```
//! use cludistream_rng::{check, Rng};
//!
//! // Addition of draws from [0, 100) never exceeds 198.
//! check::cases("sum_bounded", 64, |rng| {
//!     let (a, b) = (rng.gen_range(0..100u32), rng.gen_range(0..100u32));
//!     assert!(a + b <= 198);
//! });
//! ```

use crate::xoshiro::SplitMix64;
use crate::{Rng, StdRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Environment variable that pins the harness to a single replay seed.
pub const SEED_ENV: &str = "CLUDI_PROP_SEED";

/// FNV-1a over the property name, so distinct properties explore distinct
/// case streams even at the same case index.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The seed of case `i` of property `name`.
fn case_seed(name: &str, i: usize) -> u64 {
    SplitMix64::new(name_hash(name) ^ (i as u64)).next_u64()
}

/// Runs `property` against `n` deterministic pseudo-random cases.
///
/// On a panic inside `property`, prints the failing case's seed (and the
/// replay command) to stderr, then re-raises the panic so the test fails
/// normally. Setting [`SEED_ENV`] replays exactly one case with the given
/// seed instead of the full sweep.
pub fn cases<F>(name: &str, n: usize, property: F)
where
    F: Fn(&mut StdRng),
{
    if let Ok(pinned) = std::env::var(SEED_ENV) {
        let seed: u64 = pinned
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV}={pinned} is not a u64"));
        eprintln!("[{name}] replaying pinned seed {seed}");
        property(&mut StdRng::seed_from_u64(seed));
        return;
    }
    for i in 0..n {
        let seed = case_seed(name, i);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            property(&mut StdRng::seed_from_u64(seed))
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed on case {i}/{n} with seed {seed}; \
                 replay with {SEED_ENV}={seed}"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_case() {
        let mut count = 0;
        let counter = std::cell::Cell::new(0u32);
        cases("counts", 64, |_| counter.set(counter.get() + 1));
        count += counter.get();
        assert_eq!(count, 64);
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let out = std::cell::RefCell::new(Vec::new());
            cases("det", 8, |rng| out.borrow_mut().push(rng.next_u64()));
            out.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn distinct_properties_get_distinct_streams() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn failures_propagate() {
        cases("fails", 16, |rng| {
            if rng.gen_bool(0.5) {
                panic!("invariant violated");
            }
        });
    }
}
