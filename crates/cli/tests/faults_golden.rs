//! Golden-file test for the `faults` event journal.
//!
//! The default `cludistream faults` workload injects random loss,
//! duplication, and reordering, and crashes site 0 mid-run — yet its
//! journal must be byte-identical across runs (fault decisions come from
//! a dedicated seeded RNG stream and events are stamped with sim-time)
//! and match the committed fixture at
//! `tests/fixtures/faults_journal.jsonl`. `scripts/verify.sh` performs
//! the same diff against the release binary.

use cludistream_cli::{parse_args, run, Command, MetricsWorkload};

/// The workload `scripts/verify.sh` smoke-tests: all defaults.
fn default_faults(journal: &std::path::Path) -> Command {
    Command::Faults {
        workload: MetricsWorkload { sites: 2, chunks: 2, seed: 7, epsilon: 0.15, threads: 1 },
        drop: 0.1,
        duplicate: 0.05,
        reorder: 0.25,
        journal: Some(journal.to_string_lossy().into_owned()),
    }
}

fn run_and_read(path: &std::path::Path) -> (String, String) {
    let mut out = Vec::new();
    run(default_faults(path), &mut out).expect("faults run succeeds");
    let journal = std::fs::read_to_string(path).expect("journal written");
    let _ = std::fs::remove_file(path);
    (String::from_utf8(out).expect("utf-8 table"), journal)
}

#[test]
fn fault_journal_is_deterministic_and_matches_fixture() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let (table, first) = run_and_read(&dir.join(format!("cludistream_faults_{pid}_a.jsonl")));
    let (_, second) = run_and_read(&dir.join(format!("cludistream_faults_{pid}_b.jsonl")));

    // Byte-identical across two consecutive runs: the fault trace replays.
    assert_eq!(first, second, "fault journal not deterministic across runs");

    // And identical to the committed golden fixture.
    let fixture = include_str!("fixtures/faults_journal.jsonl");
    assert_eq!(first, fixture, "journal diverged from tests/fixtures/faults_journal.jsonl");

    // The acceptance set: the fault layer and the recovery path both fire.
    for kind in ["Dropped", "Retransmitted", "SiteCrashed", "SiteRecovered", "SynopsisSent"] {
        assert!(
            first.contains(&format!("\"event\":\"{kind}\"")),
            "journal missing a {kind} event:\n{first}"
        );
    }

    // The human-readable report accounts for the faults.
    assert!(table.contains("delivery (reliable = true):"), "{table}");
    assert!(table.contains("(balanced)"), "{table}");
    assert!(table.contains("crashes 1 | restarts 1"), "{table}");
}

#[test]
fn faults_args_parse() {
    let args: Vec<String> =
        ["faults", "--sites", "3", "--drop", "0.2", "--reorder", "0", "--journal", "x.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    match parse_args(&args).expect("valid args") {
        Command::Faults {
            workload: MetricsWorkload { sites, chunks, seed, epsilon, .. },
            drop,
            duplicate,
            reorder,
            journal,
        } => {
            assert_eq!(sites, 3);
            assert_eq!(chunks, 2);
            assert_eq!(seed, 7);
            assert_eq!(epsilon, 0.15);
            assert_eq!(drop, 0.2);
            assert_eq!(duplicate, 0.05);
            assert_eq!(reorder, 0.0);
            assert_eq!(journal.as_deref(), Some("x.jsonl"));
        }
        other => panic!("parsed {other:?}"),
    }
}
