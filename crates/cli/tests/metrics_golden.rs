//! Golden-file test for the `metrics` event journal.
//!
//! The journal of the default `cludistream metrics` workload must be
//! byte-identical across runs (events are stamped with deterministic
//! sim-time, never wall-clock) and match the committed fixture at
//! `tests/fixtures/metrics_journal.jsonl`. `scripts/verify.sh` performs
//! the same diff against the release binary.

use cludistream_cli::{parse_args, run, Command, MetricsWorkload};

/// The workload `scripts/verify.sh` smoke-tests: all defaults.
fn default_metrics(journal: &std::path::Path) -> Command {
    Command::Metrics {
        workload: MetricsWorkload { sites: 2, chunks: 2, seed: 7, epsilon: 0.15, threads: 1 },
        journal: Some(journal.to_string_lossy().into_owned()),
        reliable: false,
    }
}

fn run_and_read(path: &std::path::Path) -> (String, String) {
    let mut out = Vec::new();
    run(default_metrics(path), &mut out).expect("metrics run succeeds");
    let journal = std::fs::read_to_string(path).expect("journal written");
    let _ = std::fs::remove_file(path);
    (String::from_utf8(out).expect("utf-8 table"), journal)
}

#[test]
fn journal_is_deterministic_and_matches_fixture() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let (table, first) = run_and_read(&dir.join(format!("cludistream_golden_{pid}_a.jsonl")));
    let (_, second) = run_and_read(&dir.join(format!("cludistream_golden_{pid}_b.jsonl")));

    // Byte-identical across two consecutive runs.
    assert_eq!(first, second, "journal not deterministic across runs");

    // And identical to the committed golden fixture.
    let fixture = include_str!("fixtures/metrics_journal.jsonl");
    assert_eq!(first, fixture, "journal diverged from tests/fixtures/metrics_journal.jsonl");

    // The acceptance set: at least one of each event kind.
    for kind in ["ChunkTested", "Reclustered", "SynopsisSent", "Merge", "EmConverged"] {
        assert!(
            first.contains(&format!("\"event\":\"{kind}\"")),
            "journal missing a {kind} event:\n{first}"
        );
    }

    // Journal lines are well-formed: every line carries a sim-time stamp
    // and sim-time never decreases.
    let mut last_t = 0u64;
    for line in first.lines() {
        assert!(line.starts_with("{\"t\":"), "line missing sim-time: {line}");
        let t: u64 = line["{\"t\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("numeric sim-time");
        assert!(t >= last_t, "sim-time went backwards: {line}");
        last_t = t;
    }

    // The human table reports the registry, not the journal.
    assert!(table.contains("counters:"), "{table}");
    assert!(table.contains("em.estep_blocks"), "{table}");
    assert!(table.contains("events recorded:"), "{table}");
}

#[test]
fn metrics_args_parse() {
    let args: Vec<String> = ["metrics", "--sites", "3", "--chunks", "1", "--journal", "x.jsonl"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match parse_args(&args).expect("valid args") {
        Command::Metrics {
            workload: MetricsWorkload { sites, chunks, seed, epsilon, .. }, journal, ..
        } => {
            assert_eq!(sites, 3);
            assert_eq!(chunks, 1);
            assert_eq!(seed, 7);
            assert_eq!(epsilon, 0.15);
            assert_eq!(journal.as_deref(), Some("x.jsonl"));
        }
        other => panic!("parsed {other:?}"),
    }
}

#[test]
fn metrics_without_journal_prints_table_only() {
    let mut out = Vec::new();
    run(
        Command::Metrics {
            workload: MetricsWorkload { sites: 2, chunks: 1, seed: 7, epsilon: 0.15, threads: 1 },
            journal: None,
            reliable: false,
        },
        &mut out,
    )
    .expect("metrics run succeeds");
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("coordinator groups:"), "{text}");
    assert!(!text.contains("journal written"), "{text}");
}
