//! The generators: SplitMix64 (seeding / cheap streams) and xoshiro256++
//! (the workspace default).

use crate::traits::Rng;

/// Steele, Lea & Flood's SplitMix64.
///
/// A one-word generator whose single strength here is that *any* 64-bit
/// seed — including 0 — yields a well-mixed stream. It expands seeds into
/// [`Xoshiro256PlusPlus`] state and drives the property-test harness's
/// per-case seed derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Blackman & Vigna's xoshiro256++: 256-bit state, period 2²⁵⁶ − 1,
/// excellent statistical quality, and a handful of shifts and rotates per
/// draw — the workspace's default generator (see the [`crate::StdRng`]
/// alias).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// A generator whose 256-bit state is expanded from `seed` by four
    /// SplitMix64 steps (the seeding procedure the xoshiro authors
    /// recommend; it guarantees a non-zero state for every seed).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Xoshiro256PlusPlus {
            s: [mix.next_u64(), mix.next_u64(), mix.next_u64(), mix.next_u64()],
        }
    }
}

impl Rng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from the reference C
        // implementation (Vigna, prng.di.unimi.it).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_matches_reference_seeding() {
        // State seeded via SplitMix64(0); first output must equal the
        // reference xoshiro256++ step on that state.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        let mut mix = SplitMix64::new(0);
        let s: Vec<u64> = (0..4).map(|_| mix.next_u64()).collect();
        let expect = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        assert_eq!(rng.next_u64(), expect);
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(99);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut b = Xoshiro256PlusPlus::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        // A zero xoshiro state would emit zeros forever; SplitMix64
        // seeding prevents it.
        assert!((0..4).map(|_| rng.next_u64()).any(|v| v != 0));
    }
}
