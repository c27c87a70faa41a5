use crate::socket::scrape_snapshot;
use crate::CliError;
use cludistream::{score_snapshot, ChunkOutcome, Config, ModelSnapshot, RemoteSite};
use cludistream_datagen::csvio;
use cludistream_datagen::{EvolvingStream, EvolvingStreamConfig};
use cludistream_gmm::{fit_em, fit_em_bic, Batch, ChunkParams, CovarianceType, EmConfig};
use cludistream_linalg::Vector;
use cludistream_obs::{catalogue, Obs, Registry};
use cludistream_wire::ByteReader;
use std::io::Write;
use std::sync::Arc;

/// The `--input/--dim/--covariance` trio every data-reading subcommand
/// (`cluster`, `stream`, `score`) accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct DataOpts {
    /// Input CSV path — `--input PATH` or the first positional argument;
    /// `-` reads stdin.
    pub input: String,
    /// Expected record dimension (`--dim D`); when set, the parsed
    /// records are validated against it instead of silently inferring.
    pub dim: Option<usize>,
    /// Covariance structure (`--covariance full|diagonal`, default full).
    pub covariance: CovarianceType,
}

fn read_input(path: &str) -> Result<Vec<Vector>, CliError> {
    let records = if path == "-" {
        csvio::read_records(std::io::stdin().lock())?
    } else {
        let file = std::fs::File::open(path)?;
        csvio::read_records(std::io::BufReader::new(file))?
    };
    if records.is_empty() {
        return Err(CliError::Usage(format!("{path}: no records")));
    }
    Ok(records)
}

/// Reads the records a [`DataOpts`] selects and validates `--dim`
/// against what was actually parsed.
fn read_data(opts: &DataOpts) -> Result<Vec<Vector>, CliError> {
    let records = read_input(&opts.input)?;
    if let Some(dim) = opts.dim {
        if records[0].dim() != dim {
            return Err(CliError::Usage(format!(
                "{}: --dim {dim} but records have dimension {}",
                opts.input,
                records[0].dim()
            )));
        }
    }
    Ok(records)
}

/// `cluster`: batch EM over a whole file.
pub(crate) fn run_cluster(
    opts: DataOpts,
    k: usize,
    k_range: Option<(usize, usize)>,
    seed: u64,
    memberships: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let data = read_data(&opts)?;
    let config = EmConfig { k, seed, covariance: opts.covariance, ..Default::default() };
    let (mixture, chosen_k, bic) = match k_range {
        None => {
            let fit = fit_em(&data, &config)?;
            (fit.mixture, k, None)
        }
        Some((lo, hi)) => {
            let (best, _) = fit_em_bic(&data, lo..=hi, &config)?;
            (best.fit.mixture, best.k, Some(best.bic))
        }
    };
    writeln!(out, "records: {}", data.len())?;
    writeln!(out, "components: {chosen_k}{}", match bic {
        Some(b) => format!(" (BIC {b:.1})"),
        None => String::new(),
    })?;
    writeln!(out, "avg log likelihood: {:.4}", mixture.avg_log_likelihood(&data))?;
    for (j, (c, w)) in mixture.components().iter().zip(mixture.weights()).enumerate() {
        writeln!(out, "  component {j}: weight {w:.4}, mean {}", c.mean())?;
    }
    if memberships {
        writeln!(out, "memberships (record index: probabilities):")?;
        for (i, x) in data.iter().enumerate() {
            let p: Vec<String> =
                mixture.posteriors(x).iter().map(|v| format!("{v:.3}")).collect();
            writeln!(out, "  {i}: [{}]", p.join(", "))?;
        }
    }
    Ok(())
}

/// `stream`: the test-and-cluster narration of one remote site.
pub(crate) fn run_stream(
    opts: DataOpts,
    k: usize,
    chunk: ChunkParams,
    c_max: usize,
    seed: u64,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let data = read_data(&opts)?;
    let dim = data[0].dim();
    let config = Config {
        dim,
        k,
        chunk,
        c_max,
        seed,
        covariance: opts.covariance,
        ..Default::default()
    };
    let mut site = RemoteSite::new(config)?;
    writeln!(out, "chunk size M = {} records (Theorem 1)", site.chunk_size())?;
    for x in data {
        if let Some(outcome) = site.push(x)? {
            let chunk = site.chunk_index() - 1;
            match outcome {
                ChunkOutcome::FitCurrent { j_fit } => {
                    writeln!(out, "chunk {chunk}: fits current (J_fit {j_fit:.4})")?
                }
                ChunkOutcome::SwitchedTo { model, tests, .. } => writeln!(
                    out,
                    "chunk {chunk}: re-fit model {model} after {tests} tests"
                )?,
                ChunkOutcome::NewModel { model, .. } => {
                    writeln!(out, "chunk {chunk}: NEW model {model}")?
                }
            }
        }
    }
    let s = site.stats();
    writeln!(out, "---")?;
    writeln!(
        out,
        "records {} | chunks {} | fit {} | re-fit {} | clustered {}",
        s.records, s.chunks, s.fit_current, s.switched, s.clustered
    )?;
    writeln!(out, "models: {}", site.models().len())?;
    for e in site.events().entries_at(site.chunk_index().saturating_sub(1)) {
        writeln!(
            out,
            "  chunks {:>4}..={:<4} -> model {}",
            e.start_chunk, e.end_chunk, e.model
        )?;
    }
    Ok(())
}

/// `generate`: a synthetic evolving-GMM stream as CSV.
pub(crate) fn run_generate(
    records: usize,
    dim: usize,
    k: usize,
    p_new: f64,
    seed: u64,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let mut stream = EvolvingStream::new(EvolvingStreamConfig {
        dim,
        k,
        p_new,
        seed,
        ..Default::default()
    });
    let data = stream.take_chunk(records);
    csvio::write_records(out, &data, None)?;
    Ok(())
}

/// `score`: batched Definition-1 assignment against a snapshot.
pub(crate) fn run_score(
    opts: DataOpts,
    model: Option<String>,
    connect: Option<String>,
    responsibilities: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let bytes = match (&model, &connect) {
        (Some(path), _) => std::fs::read(path)?,
        (None, Some(addr)) => {
            // An empty reply means the coordinator is up but has
            // not learned a model yet — poll until it has one.
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let bytes = scrape_snapshot(addr)
                    .map_err(|e| CliError::Usage(format!("score: {addr}: {e}")))?;
                if !bytes.is_empty() {
                    break bytes;
                }
                if std::time::Instant::now() >= deadline {
                    return Err(CliError::Usage(format!(
                        "score: {addr}: no snapshot published within 10s"
                    )));
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        }
        (None, None) => {
            return Err(CliError::Usage(
                "score requires --model PATH or --connect HOST:PORT".into(),
            ))
        }
    };
    let snapshot = ModelSnapshot::decode(&mut ByteReader::new(&bytes))
        .map_err(|e| CliError::Usage(format!("score: invalid snapshot: {e}")))?;
    let records = read_data(&opts)?;
    let dim = records[0].dim();
    if dim != snapshot.mixture.dim() {
        return Err(CliError::Usage(format!(
            "score: records have dimension {dim} but the model is {}-dimensional",
            snapshot.mixture.dim()
        )));
    }
    let batch = Batch::from_records(&records);
    // Instrumented score path: the same `serve.score_us`
    // observations a long-lived scorer would feed its quantile
    // tracker from.
    let registry = Arc::new(Registry::new());
    registry.track_quantiles(catalogue::SERVE_SCORE_US);
    let score_obs = Obs::from_registry(Arc::clone(&registry));
    let scores = score_snapshot(&snapshot, &batch, 1, &score_obs)?;
    writeln!(
        out,
        "snapshot: version {} | messages applied {} | groups {}",
        snapshot.version,
        snapshot.messages_applied,
        snapshot.groups.len()
    )?;
    writeln!(
        out,
        "model: {} components, dim {}, {:?} covariance",
        snapshot.mixture.k(),
        snapshot.mixture.dim(),
        snapshot.covariance
    )?;
    writeln!(out, "records: {}", records.len())?;
    for i in 0..scores.len() {
        write!(
            out,
            "  {i}: component {} (log p {:.4})",
            scores.labels()[i],
            scores.log_pdf()[i]
        )?;
        if responsibilities {
            let p: Vec<String> = scores
                .responsibilities(i)
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect();
            write!(out, " [{}]", p.join(", "))?;
        }
        writeln!(out)?;
    }
    writeln!(out, "avg log likelihood: {:.4}", scores.avg_log_likelihood())?;
    if let Some(us) = registry.exact_quantile(catalogue::SERVE_SCORE_US.as_str(), 0.5) {
        writeln!(out, "score latency: {us} us for {} records", records.len())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::opts;
    use crate::{run, Command};
    use cludistream_gmm::{Gaussian, Mixture};

    #[test]
    fn generate_then_cluster_roundtrip() {
        // Generate a small stream to a buffer, re-parse it, cluster it.
        let mut csv = Vec::new();
        run(
            Command::Generate { records: 300, dim: 2, k: 2, p_new: 0.0, seed: 1 },
            &mut csv,
        )
        .unwrap();
        let records = csvio::read_records(std::io::Cursor::new(&csv)).unwrap();
        assert_eq!(records.len(), 300);
        assert_eq!(records[0].dim(), 2);
        // Write to a temp file and run `cluster` on it.
        let path = std::env::temp_dir().join("cludistream_cli_test.csv");
        std::fs::write(&path, &csv).unwrap();
        let mut out = Vec::new();
        run(
            Command::Cluster {
                data: opts(&path.to_string_lossy()),
                k: 2,
                k_range: None,
                seed: 2,
                memberships: false,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records: 300"), "{text}");
        assert!(text.contains("components: 2"));
        assert!(text.contains("avg log likelihood"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_command_runs_end_to_end() {
        // A generated stream with large epsilon → small chunks → visible
        // narration.
        let mut csv = Vec::new();
        run(
            Command::Generate { records: 500, dim: 1, k: 1, p_new: 0.0, seed: 3 },
            &mut csv,
        )
        .unwrap();
        let path = std::env::temp_dir().join("cludistream_cli_stream_test.csv");
        std::fs::write(&path, &csv).unwrap();
        let mut out = Vec::new();
        run(
            Command::Stream {
                data: opts(&path.to_string_lossy()),
                k: 1,
                epsilon: 0.2,
                delta: 0.05,
                c_max: 4,
                seed: 4,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("chunk size M ="), "{text}");
        assert!(text.contains("chunk 0: NEW model"), "{text}");
        // Tiny chunks are noisy; a stable stream still ends with very few
        // models.
        assert!(text.contains("models: 1") || text.contains("models: 2"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn score_command_scores_against_a_snapshot_file() {
        use cludistream::{ModelId, SnapshotGroup, SnapshotMember};
        // Two well-separated 1-d components; three records near them.
        let mixture = Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[10.0]), 1.0).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        let snapshot = ModelSnapshot {
            version: 3,
            messages_applied: 12,
            covariance: CovarianceType::Full,
            mixture,
            groups: vec![
                SnapshotGroup {
                    id: 1,
                    weight: 0.5,
                    members: vec![SnapshotMember { site: 0, model: ModelId(0), component: 0 }]
                        .into(),
                },
                SnapshotGroup { id: 2, weight: 0.5, members: Default::default() },
            ],
        };
        let snap_path = std::env::temp_dir().join("cludistream_cli_score_snap.bin");
        std::fs::write(&snap_path, snapshot.encode().into_vec()).unwrap();
        let csv_path = std::env::temp_dir().join("cludistream_cli_score_data.csv");
        std::fs::write(&csv_path, "0.2\n9.7\n0.4\n").unwrap();

        let command = |dim: Option<usize>| Command::Score {
            data: DataOpts {
                input: csv_path.to_string_lossy().into_owned(),
                dim,
                covariance: CovarianceType::Full,
            },
            model: Some(snap_path.to_string_lossy().into_owned()),
            connect: None,
            responsibilities: true,
        };
        let mut out = Vec::new();
        run(command(Some(1)), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("snapshot: version 3 | messages applied 12 | groups 2"), "{text}");
        assert!(text.contains("0: component 0"), "{text}");
        assert!(text.contains("1: component 1"), "{text}");
        assert!(text.contains("2: component 0"), "{text}");
        assert!(text.contains("avg log likelihood"), "{text}");
        // --dim is validated against the parsed records.
        assert!(run(command(Some(2)), &mut Vec::new()).is_err());
        let _ = std::fs::remove_file(snap_path);
        let _ = std::fs::remove_file(csv_path);
    }
}
