//! Standard workloads matching the paper's experimental setting (Sec. 6):
//! synthetic evolving-GMM streams (default d=4, K=5, P_d=0.1, new
//! distribution opportunity every 2K points) and the NFD-like normalized
//! net-flow stream.

use cludistream::RecordStream;
use cludistream_datagen::{
    EvolvingStream, EvolvingStreamConfig, MinMaxNormalizer, NetflowConfig, NetflowGenerator,
};
use cludistream_linalg::Vector;

/// The paper's default synthetic stream: d-dimensional, K natural
/// clusters, regime-change probability `p_d` every 2000 records.
pub fn synthetic_stream(dim: usize, k: usize, p_d: f64, seed: u64) -> EvolvingStream {
    EvolvingStream::new(EvolvingStreamConfig {
        dim,
        k,
        p_new: p_d,
        regime_len: 2000,
        seed,
        ..Default::default()
    })
}

/// Boxed synthetic stream for the simulation drivers.
pub fn synthetic_boxed(dim: usize, k: usize, p_d: f64, seed: u64) -> RecordStream {
    Box::new(synthetic_stream(dim, k, p_d, seed))
}

/// The NFD substitute: six normalized net-flow attributes. A shared
/// normalizer is fitted on a warmup sample (the paper normalizes each
/// attribute).
pub fn nfd_like_normalizer(seed: u64) -> MinMaxNormalizer {
    let mut warm = NetflowGenerator::new(NetflowConfig { seed, ..Default::default() });
    let sample = warm.take_chunk(5_000);
    MinMaxNormalizer::fit(&sample)
}

/// One normalized NFD-like stream.
pub fn nfd_like_boxed(normalizer: &MinMaxNormalizer, p_new: f64, seed: u64) -> RecordStream {
    let gen = NetflowGenerator::new(NetflowConfig { seed, p_new, ..Default::default() });
    let norm = normalizer.clone();
    Box::new(gen.map(move |r| norm.transform(&r)))
}

/// Collects `n` records from any stream.
pub fn collect(stream: &mut dyn Iterator<Item = Vector>, n: usize) -> Vec<Vector> {
    stream.take(n).collect()
}

/// Dimensionality of NFD-like records.
pub const NFD_DIM: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stream_matches_dims() {
        let mut s = synthetic_stream(4, 5, 0.1, 1);
        let recs = collect(&mut s, 10);
        assert!(recs.iter().all(|r| r.dim() == 4));
    }

    #[test]
    fn nfd_like_stream_is_normalized() {
        let norm = nfd_like_normalizer(1);
        let mut s = nfd_like_boxed(&norm, 0.05, 2);
        let recs = collect(&mut *s, 100);
        assert!(recs.iter().all(|r| r.dim() == NFD_DIM));
        assert!(recs.iter().all(|r| r.iter().all(|&v| (0.0..=1.0).contains(&v))));
    }
}
