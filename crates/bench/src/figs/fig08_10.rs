//! Figures 8-10: scalability — processing time vs updates (Fig. 8),
//! vs cluster count K and dimensionality d (Fig. 9), and memory usage
//! (Fig. 10).

use crate::figs::common::{paper_config, paper_config_dim};
use crate::table::{Series, Table};
use crate::timing::time_it;
use crate::workloads;
use crate::Scale;
use cludistream::{Config, RemoteSite};
use cludistream_baselines::{ScalableEm, SemConfig};
use cludistream_gmm::CovarianceType;
use cludistream_linalg::Vector;

/// Wall time to push `records` into a fresh CluDistream site.
fn clu_time(config: &Config, records: Vec<Vector>) -> f64 {
    let mut site = RemoteSite::new(config.clone()).expect("valid config");
    let (_, secs) = time_it(|| {
        for x in records {
            site.push(x).expect("site processes");
        }
    });
    secs
}

/// Wall time to push `records` into a fresh SEM instance.
fn sem_time(k: usize, records: Vec<Vector>) -> f64 {
    let mut sem = ScalableEm::new(SemConfig { k, buffer_size: 1000, seed: 8, ..Default::default() })
        .expect("valid SEM config");
    let (_, secs) = time_it(|| {
        for x in records {
            sem.push(x).expect("SEM processes");
        }
    });
    secs
}

/// Runs the Fig. 8 experiment: time vs number of updates.
pub(crate) fn run_fig8(scale: Scale) -> Vec<Table> {
    let steps: Vec<usize> = (1..=5).map(|i| scale.updates(10_000) * i).collect();

    type Maker = Box<dyn Fn(usize) -> Vec<Vector>>;
    let datasets: [(&str, &str, Maker, usize); 2] = [
        (
            "fig8a",
            "Fig 8(a): processing time vs updates, NFD-like",
            Box::new(|n| {
                let norm = workloads::nfd_like_normalizer(81);
                let mut s = workloads::nfd_like_boxed(&norm, 0.05, 82);
                workloads::collect(&mut *s, n)
            }),
            workloads::NFD_DIM,
        ),
        (
            "fig8b",
            "Fig 8(b): processing time vs updates, synthetic",
            Box::new(|n| {
                let mut s = workloads::synthetic_boxed(4, 5, 0.1, 83);
                workloads::collect(&mut *s, n)
            }),
            4,
        ),
    ];

    let mut tables = Vec::new();
    for (id, title, make, dim) in datasets {
        let config = paper_config_dim(dim);
        let mut clu = Series::new("CluDistream (s)");
        let mut sem = Series::new("SEM (s)");
        for &n in &steps {
            let data = make(n);
            clu.push(n as f64, clu_time(&config, data.clone()));
            sem.push(n as f64, sem_time(config.k, data));
        }
        if let (Some(c), Some(s)) = (clu.last_y(), sem.last_y()) {
            let n = *steps.last().expect("non-empty steps") as f64;
            println!(
                "[{id}] at {n} updates: CluDistream {:.0} upd/s vs SEM {:.0} upd/s",
                n / c.max(1e-9),
                n / s.max(1e-9)
            );
        }
        tables.push(Table::new(id, title, "updates", vec![clu, sem]));
    }
    tables
}

/// Runs the Fig. 9 experiment: time vs K and vs d.
///
/// The workload is normalized across configurations: a fresh regime every
/// two chunks (via the cycling generator with more regimes than any c_max
/// can reuse), so every run performs the same *number* of EM clusterings
/// and the measured scaling isolates the per-operation cost, as the
/// paper's linear-scaling claim intends.
pub(crate) fn run_fig9(scale: Scale) -> Vec<Table> {
    use crate::figs::common::separated_cycling_stream;
    let updates = scale.updates(30_000);

    // (a) varying K, fixed d = 4. EM iteration counts are pinned so the
    // measured scaling is per-operation cost, not convergence luck.
    let mut by_k = Series::new("CluDistream (s)");
    let mut em_k = Series::new("EM clusterings");
    for k in [10usize, 20, 30, 40] {
        let mut config = paper_config();
        config.k = k;
        config.em_max_iters = 20;
        config.em_tol = 0.0;
        let site = RemoteSite::new(config.clone()).expect("valid config");
        let data: Vec<Vector> =
            separated_cycling_stream(4, 8, 64, 2 * site.chunk_size(), 91).take(updates).collect();
        let mut site = RemoteSite::new(config).expect("valid config");
        let (_, secs) = time_it(|| {
            for x in data {
                site.push(x).expect("site processes");
            }
        });
        by_k.push(k as f64, secs);
        em_k.push(k as f64, site.stats().clustered as f64);
    }
    let title = "Fig 9(a): processing time vs cluster count K (d=4)";
    let a = Table::new("fig9a", title, "K", vec![by_k, em_k]);

    // (b) varying d, fixed K = 5. The chunk size M grows linearly with d
    // (Theorem 1), so fewer chunks fit in a fixed update budget; total time
    // still scales linearly because per-record cost is what grows.
    // Diagonal covariances, as Theorem 3's d-vector representation: with
    // full matrices the per-record cost is inherently O(d^2) and the
    // paper's linear-in-d claim cannot hold.
    let mut by_d = Series::new("CluDistream diag (s)");
    let mut em_d = Series::new("EM clusterings");
    for d in [10usize, 20, 30, 40] {
        let mut config = paper_config_dim(d);
        config.covariance = CovarianceType::Diagonal;
        config.em_max_iters = 20;
        config.em_tol = 0.0;
        let site = RemoteSite::new(config.clone()).expect("valid config");
        let data: Vec<Vector> =
            separated_cycling_stream(d, 5, 64, 2 * site.chunk_size(), 92).take(updates).collect();
        let mut site = RemoteSite::new(config).expect("valid config");
        let (_, secs) = time_it(|| {
            for x in data {
                site.push(x).expect("site processes");
            }
        });
        by_d.push(d as f64, secs);
        em_d.push(d as f64, site.stats().clustered as f64);
    }
    let title = "Fig 9(b): processing time vs dimensionality d (K=5)";
    vec![a, Table::new("fig9b", title, "d", vec![by_d, em_d])]
}

/// Runs the Fig. 10 experiment: memory usage.
pub(crate) fn run_fig10(scale: Scale) -> Vec<Table> {
    // (a) memory vs updates on both workloads: checkpoints along one run.
    let checkpoints: Vec<usize> = (1..=5).map(|i| scale.updates(10_000) * i).collect();
    let mut series = Vec::new();
    for (name, dim, seed, nfd) in
        [("NFD-like", workloads::NFD_DIM, 101u64, true), ("synthetic", 4, 102, false)]
    {
        let config = paper_config_dim(dim);
        let mut site = RemoteSite::new(config).expect("valid config");
        let mut stream: Box<dyn Iterator<Item = Vector> + Send> = if nfd {
            let norm = workloads::nfd_like_normalizer(seed);
            workloads::nfd_like_boxed(&norm, 0.05, seed + 1)
        } else {
            workloads::synthetic_boxed(4, 5, 0.1, seed)
        };
        let mut s = Series::new(format!("{name} (bytes)"));
        let mut fed = 0usize;
        for &cp in &checkpoints {
            while fed < cp {
                site.push(stream.next().expect("infinite stream")).expect("site processes");
                fed += 1;
            }
            s.push(cp as f64, site.memory_bytes() as f64);
        }
        series.push(s);
    }
    let a = Table::new("fig10a", "Fig 10(a): site memory vs updates", "updates", series);

    // (b) memory vs K for several d: run enough updates to learn a few
    // models, then account memory.
    let updates = scale.updates(8_000);
    let mut series = Vec::new();
    for d in [10usize, 20, 30, 40] {
        let mut s = Series::new(format!("d={d} (bytes)"));
        for k in [10usize, 20, 30, 40] {
            let mut config = paper_config_dim(d);
            config.k = k;
            // Memory accounting (Theorem 3) is what Fig. 10(b) plots; the
            // model-parameter term dominates, so one learned model per
            // (K, d) cell is enough to show the slopes — a handful of EM
            // iterations suffices (the estimate's quality is irrelevant to
            // its size).
            config.em_max_iters = 5;
            let mut site = RemoteSite::new(config).expect("valid config");
            let mut stream = workloads::synthetic_boxed(d, k.min(10), 0.1, 103);
            // Always feed two full chunks so at least one model is learned
            // regardless of how big Theorem 1 makes M for this d.
            let need = (2 * site.chunk_size()).max(updates.min(2 * site.chunk_size()));
            let data = workloads::collect(&mut *stream, need);
            for x in data {
                site.push(x).expect("site processes");
            }
            s.push(k as f64, site.memory_bytes() as f64);
        }
        series.push(s);
    }
    let b = Table::new("fig10b", "Fig 10(b): site memory vs K, for several d", "K", series);

    // The diagonal-covariance representation Theorem 3 mentions.
    let mut config = paper_config();
    config.covariance = CovarianceType::Diagonal;
    let mut site = RemoteSite::new(config).expect("valid config");
    let mut stream = workloads::synthetic_boxed(4, 5, 0.1, 104);
    for x in workloads::collect(&mut *stream, 2 * site.chunk_size()) {
        site.push(x).expect("site processes");
    }
    println!(
        "[fig10] diagonal-covariance site after 2 chunks: {} bytes (full-covariance term drops \
         from d^2 to d per component)",
        site.memory_bytes()
    );
    vec![a, b]
}
