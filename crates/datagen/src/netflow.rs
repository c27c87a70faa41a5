//! NFD-substitute: a synthetic net-flow record generator.
//!
//! The paper's real workload (NFD) is net-flow data from Shanghai Telecom
//! with six attributes: source host, destination host, source TCP port,
//! destination TCP port, packet count and byte count. The data set was
//! never published, so this generator reproduces its statistically relevant
//! structure instead (DESIGN.md substitution 1):
//!
//! - traffic is a mixture of *application profiles* (web, DNS, mail, bulk
//!   transfer, scan-like anomaly) → multi-modal dense regions a GMM can
//!   capture;
//! - hosts and ports are heavy-tailed (Zipf) — a handful of servers receive
//!   most flows;
//! - packet and byte counts are log-normal-ish and strongly correlated
//!   within a profile;
//! - the traffic mix drifts: profile weights wander slowly, and with
//!   probability `p_new` per block the profile set is redrawn (a regime
//!   change, e.g. a flash crowd or an attack), giving the stream the same
//!   punctuated-drift character the CluDistream experiments rely on.
//!
//! Records come out as raw 6-d vectors; the experiments normalize them with
//! [`crate::MinMaxNormalizer`], matching the paper ("we normalize each
//! attribute").

use crate::powerlaw::Zipf;
use cludistream_linalg::Vector;
use cludistream_rng::{standard_normal, Rng, StdRng};

/// Number of distinct hosts in the simulated network.
const HOSTS: usize = 1000;

/// Number of application profiles active at a time.
const PROFILES: usize = 5;

/// Configuration of the net-flow generator.
#[derive(Debug, Clone)]
pub struct NetflowConfig {
    /// Probability of a regime change (profile set redraw) per block.
    pub p_new: f64,
    /// Records per block (regime-change opportunity granularity).
    pub block_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetflowConfig {
    fn default() -> Self {
        NetflowConfig { p_new: 0.05, block_len: 2000, seed: 0 }
    }
}

/// One application profile: the generative model of a flow class.
#[derive(Debug, Clone)]
struct Profile {
    /// Typical destination port (service port), jittered slightly.
    dst_port: f64,
    /// Mean of ln(packet count).
    log_packets_mean: f64,
    /// Std of ln(packet count).
    log_packets_std: f64,
    /// Mean bytes per packet.
    bytes_per_packet: f64,
    /// Std of bytes-per-packet noise.
    bytes_noise: f64,
    /// Relative weight of this profile in the mix.
    weight: f64,
    /// Bias added to the Zipf host rank so different profiles prefer
    /// different server neighbourhoods.
    host_bias: usize,
}

/// The synthetic net-flow stream. Implements `Iterator<Item = Vector>`;
/// each record is `[src_host, dst_host, src_port, dst_port, packets,
/// bytes]` as raw (unnormalized) f64 values.
#[derive(Debug)]
pub struct NetflowGenerator {
    config: NetflowConfig,
    rng: StdRng,
    host_zipf: Zipf,
    profiles: Vec<Profile>,
    emitted: usize,
    regime_id: usize,
}

/// Service ports the profile generator draws from (web, dns, mail, ssh,
/// bulk, plus an ephemeral scan band).
const SERVICE_PORTS: [f64; 6] = [80.0, 53.0, 25.0, 22.0, 443.0, 6881.0];

impl NetflowGenerator {
    /// Creates the generator and draws the initial profile set.
    pub fn new(config: NetflowConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.p_new), "p_new must be a probability");
        assert!(config.block_len > 0, "block_len must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let host_zipf = Zipf::new(HOSTS, 1.1);
        let profiles = Self::draw_profiles(&mut rng);
        NetflowGenerator { config, rng, host_zipf, profiles, emitted: 0, regime_id: 0 }
    }

    /// Collects the next `n` records.
    pub fn take_chunk(&mut self, n: usize) -> Vec<Vector> {
        self.by_ref().take(n).collect()
    }

    fn draw_profiles(rng: &mut StdRng) -> Vec<Profile> {
        (0..PROFILES)
            .map(|_| {
                let port = SERVICE_PORTS[rng.gen_range(0..SERVICE_PORTS.len())];
                Profile {
                    dst_port: port,
                    log_packets_mean: rng.gen_range(1.0..5.0),
                    log_packets_std: rng.gen_range(0.2..0.8),
                    bytes_per_packet: rng.gen_range(60.0..1400.0),
                    bytes_noise: rng.gen_range(10.0..120.0),
                    weight: rng.gen_range(0.5..2.0),
                    host_bias: rng.gen_range(0..HOSTS / 2),
                }
            })
            .collect()
    }

    fn pick_profile(&mut self) -> usize {
        let total: f64 = self.profiles.iter().map(|p| p.weight).sum();
        let mut target = self.rng.gen::<f64>() * total;
        for (i, p) in self.profiles.iter().enumerate() {
            target -= p.weight;
            if target <= 0.0 {
                return i;
            }
        }
        self.profiles.len() - 1
    }
}

impl Iterator for NetflowGenerator {
    type Item = Vector;

    fn next(&mut self) -> Option<Vector> {
        // Regime boundary.
        if self.emitted > 0 && self.emitted.is_multiple_of(self.config.block_len) {
            if self.rng.gen::<f64>() < self.config.p_new {
                self.profiles = Self::draw_profiles(&mut self.rng);
                self.regime_id += 1;
            } else {
                // Slow drift: profile weights random-walk a little.
                for p in &mut self.profiles {
                    p.weight = (p.weight * self.rng.gen_range(0.9..1.1)).clamp(0.1, 4.0);
                }
            }
        }
        self.emitted += 1;

        let idx = self.pick_profile();
        let p = self.profiles[idx].clone();

        let src_host = self.host_zipf.sample(&mut self.rng) as f64;
        let dst_host =
            ((self.host_zipf.sample(&mut self.rng) + p.host_bias - 1) % HOSTS + 1) as f64;
        // Clients use ephemeral ports; service port gets small jitter.
        let src_port = self.rng.gen_range(32768.0..61000.0);
        let dst_port = p.dst_port + self.rng.gen_range(-2.0..=2.0);
        let packets =
            (p.log_packets_mean + p.log_packets_std * standard_normal(&mut self.rng))
                .exp()
                .max(1.0);
        let bytes =
            packets * (p.bytes_per_packet + p.bytes_noise * standard_normal(&mut self.rng))
                .max(40.0);

        Some(Vector::from_slice(&[src_host, dst_host, src_port, dst_port, packets, bytes]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_have_six_finite_attributes() {
        let mut g = NetflowGenerator::new(NetflowConfig::default());
        for r in g.by_ref().take(200) {
            assert_eq!(r.dim(), 6);
            assert!(r.is_finite());
        }
    }

    #[test]
    fn attribute_ranges_plausible() {
        let mut g = NetflowGenerator::new(NetflowConfig { seed: 1, ..Default::default() });
        for r in g.by_ref().take(500) {
            assert!(r[0] >= 1.0 && r[0] <= 1000.0, "src host {}", r[0]);
            assert!(r[1] >= 1.0 && r[1] <= 1000.0, "dst host {}", r[1]);
            assert!(r[2] >= 32768.0 && r[2] < 61000.0, "src port {}", r[2]);
            assert!(r[3] > 0.0 && r[3] < 65536.0, "dst port {}", r[3]);
            assert!(r[4] >= 1.0, "packets {}", r[4]);
            assert!(r[5] >= 40.0, "bytes {}", r[5]);
        }
    }

    #[test]
    fn hosts_are_heavy_tailed() {
        let mut g = NetflowGenerator::new(NetflowConfig { seed: 2, ..Default::default() });
        let recs = g.take_chunk(5000);
        // Top-10 source hosts should own a disproportionate share of flows.
        let mut counts = std::collections::HashMap::new();
        for r in &recs {
            *counts.entry(r[0] as u64).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().cloned().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / recs.len() as f64 > 0.15,
            "top-10 hosts carry only {top10}/{}",
            recs.len()
        );
    }

    #[test]
    fn packets_and_bytes_correlated() {
        let mut g = NetflowGenerator::new(NetflowConfig { seed: 3, p_new: 0.0, ..Default::default() });
        let recs = g.take_chunk(3000);
        let n = recs.len() as f64;
        let (mx, my) = (
            recs.iter().map(|r| r[4]).sum::<f64>() / n,
            recs.iter().map(|r| r[5]).sum::<f64>() / n,
        );
        let cov = recs.iter().map(|r| (r[4] - mx) * (r[5] - my)).sum::<f64>() / n;
        let (sx, sy) = (
            (recs.iter().map(|r| (r[4] - mx).powi(2)).sum::<f64>() / n).sqrt(),
            (recs.iter().map(|r| (r[5] - my).powi(2)).sum::<f64>() / n).sqrt(),
        );
        let corr = cov / (sx * sy);
        assert!(corr > 0.5, "packet/byte correlation too weak: {corr}");
    }

    #[test]
    fn regime_changes_with_p_one() {
        let mut g = NetflowGenerator::new(NetflowConfig {
            p_new: 1.0,
            block_len: 100,
            seed: 4,
            ..Default::default()
        });
        let _ = g.take_chunk(1000);
        assert_eq!(g.regime_id, 9);
    }

    #[test]
    fn no_regime_changes_with_p_zero() {
        let mut g = NetflowGenerator::new(NetflowConfig {
            p_new: 0.0,
            block_len: 100,
            seed: 5,
            ..Default::default()
        });
        let _ = g.take_chunk(1000);
        assert_eq!(g.regime_id, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = NetflowConfig { seed: 6, ..Default::default() };
        let a: Vec<Vector> = NetflowGenerator::new(cfg.clone()).take(100).collect();
        let b: Vec<Vector> = NetflowGenerator::new(cfg).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn dst_ports_cluster_on_services() {
        let mut g = NetflowGenerator::new(NetflowConfig { seed: 7, p_new: 0.0, ..Default::default() });
        let recs = g.take_chunk(2000);
        let near_service = recs
            .iter()
            .filter(|r| SERVICE_PORTS.iter().any(|&p| (r[3] - p).abs() <= 2.0))
            .count();
        assert_eq!(near_service, recs.len());
    }
}
