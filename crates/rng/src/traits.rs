//! The `Rng` trait and the sampling traits behind `gen` / `gen_range`.

use std::ops::{Range, RangeInclusive};

/// A source of uniform 64-bit randomness plus the derived draws the
/// workspace uses.
///
/// Implementors provide [`Rng::next_u64`]; everything else has a default
/// implementation. Generic consumers should bound on `R: Rng + ?Sized` so
/// both concrete generators and `&mut` references work.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // The top 53 bits scaled by 2⁻⁵³: every representable value in
        // [0, 1) with that granularity, never 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw of type `T` over its natural domain (`[0, 1)` for
    /// floats, the full integer domain for integers).
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from `range` (`a..b` or `a..=b`).
    ///
    /// Panics on an empty range, matching the previous `rand` behaviour.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_in(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly over their natural domain by
/// [`Rng::gen`].
pub trait Sample: Sized {
    /// A uniform draw from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        rng.next_f64()
    }
}

impl Sample for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        // 24 bits of precision, in [0, 1).
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! sample_int_impl {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

sample_int_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range types [`Rng::gen_range`] accepts: `a..b` and `a..=b` over the
/// workspace's numeric types.
pub trait SampleRange<T> {
    /// A uniform draw from `self`. Panics if the range is empty.
    fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + (self.end - self.start) * rng.next_f64();
        // Rounding can land exactly on the excluded endpoint when the
        // span is huge; fold that measure-zero case back to the start.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range {start}..={end}");
        start + (end - start) * rng.next_f64()
    }
}

macro_rules! range_int_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                ((self.start as i128).wrapping_add(v as i128)) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range {start}..={end}");
                let span = (end as i128).wrapping_sub(start as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                ((start as i128).wrapping_add(v as i128)) as $t
            }
        }
    )*};
}

range_int_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StdRng;

    #[test]
    fn f64_draws_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!((3..17).contains(&rng.gen_range(3..17usize)));
            assert!((0..=5).contains(&rng.gen_range(0..=5u32)));
            let f = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f), "{f}");
            let g = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&g), "{g}");
            assert!((-4..=-2).contains(&rng.gen_range(-4i64..=-2)));
        }
    }

    #[test]
    fn singleton_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(rng.gen_range(7..=7usize), 7);
        assert_eq!(rng.gen_range(2.0..=2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn range_draws_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn works_through_mut_references() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(7);
        let v = draw(&mut rng);
        assert!((0.0..1.0).contains(&v));
        // And via a nested &mut (the blanket impl).
        let r = &mut rng;
        let w = draw(r);
        assert!((0.0..1.0).contains(&w));
    }

    #[test]
    fn full_domain_u64_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(8);
        // Must not overflow the span arithmetic.
        let _ = rng.gen_range(0..=u64::MAX);
    }
}
