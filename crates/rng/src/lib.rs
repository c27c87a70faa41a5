#![warn(unreachable_pub)]
#![deny(unsafe_code)]

//! Deterministic pseudo-randomness for the CluDistream reproduction.
//!
//! Every stochastic component of the workspace — synthetic stream
//! generators, k-means++ and EM initialization, the merge refiner, and the
//! property-test harness — draws from this crate instead of an external
//! RNG library, so the whole reproduction builds offline and every
//! experiment in EXPERIMENTS.md is replayable from a single `u64` seed.
//!
//! The generator is xoshiro256++ ([`Xoshiro256PlusPlus`]), seeded through
//! SplitMix64 exactly as Blackman & Vigna recommend: the 64-bit seed is
//! expanded into the 256-bit state by four SplitMix64 steps, which keeps
//! sparse seeds (0, 1, 2, …) far apart in state space. [`StdRng`] is an
//! alias for the default generator so call sites name the *role* rather
//! than the algorithm.
//!
//! Determinism is the core contract: two generators built from the same
//! seed produce the same stream, on every platform, forever.
//!
//! ```
//! use cludistream_rng::{Rng, StdRng};
//!
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::seed_from_u64(42);
//! let xs: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
//! let ys: Vec<u64> = (0..5).map(|_| b.next_u64()).collect();
//! assert_eq!(xs, ys);
//!
//! // Derived draws are deterministic too.
//! assert_eq!(a.gen_range(0..100usize), b.gen_range(0..100usize));
//! assert_eq!(a.gen::<f64>(), b.gen::<f64>());
//! ```
//!
//! Beyond the raw generator the crate provides the small set of
//! distributions the reproduction needs — uniform ranges via
//! [`Rng::gen_range`], standard-normal deviates via Box–Muller
//! ([`standard_normal`], [`Normal`]) and Fisher–Yates [`shuffle`] — plus
//! [`check`], a seeded replacement for property-based testing that reports
//! the failing seed on panic.

pub mod check;
mod dist;
mod traits;
mod xoshiro;

pub use dist::{shuffle, standard_normal, Normal};
pub use traits::{Rng, Sample, SampleRange};
pub use xoshiro::Xoshiro256PlusPlus;

/// The workspace's default deterministic generator.
///
/// An alias so call sites say "the standard generator" without committing
/// to the algorithm; the concrete choice is [`Xoshiro256PlusPlus`].
pub type StdRng = Xoshiro256PlusPlus;
