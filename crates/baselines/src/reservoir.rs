use cludistream_rng::Rng;

/// Classic Algorithm-R reservoir sampler: a uniform sample of fixed
/// capacity over an unbounded stream.
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> ReservoirSampler<T> {
    /// Creates a sampler holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        ReservoirSampler { capacity, seen: 0, items: Vec::with_capacity(capacity) }
    }

    /// Current sample contents.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Offers one item; each stream element ends up in the sample with
    /// probability `capacity / seen`.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_rng::StdRng;

    #[test]
    fn fills_to_capacity_then_stays() {
        let mut r = ReservoirSampler::new(5);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..100u32 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items().len(), 5);
        assert_eq!(r.seen, 100);
    }

    #[test]
    fn short_stream_keeps_everything() {
        let mut r = ReservoirSampler::new(10);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..4u32 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3]);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Each of 100 stream positions should appear in a size-10 reservoir
        // about 10% of the time across many runs.
        let mut hits = vec![0u32; 100];
        for seed in 0..600 {
            let mut r = ReservoirSampler::new(10);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..100u32 {
                r.offer(i, &mut rng);
            }
            for &kept in r.items() {
                hits[kept as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let freq = h as f64 / 600.0;
            assert!((freq - 0.1).abs() < 0.06, "position {i}: frequency {freq}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: ReservoirSampler<u8> = ReservoirSampler::new(0);
    }
}
