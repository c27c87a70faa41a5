//! Golden-file tests for the files `simulate` writes.
//!
//! Journal events are stamped with deterministic sim-time, fault decisions
//! come from a dedicated seeded RNG stream, and span ids are allocated in
//! simulator dispatch order, so the default workload's files must be
//! byte-identical across runs and match the committed fixtures:
//! `simulate --journal` → `tests/fixtures/metrics_journal.jsonl`,
//! `simulate --faults --journal` → `tests/fixtures/faults_journal.jsonl`,
//! `simulate --faults --trace-out` → `tests/fixtures/trace_faults.json`.
//! `scripts/verify.sh` performs the same diffs against the release binary.

use cludistream_cli::{parse_args, run, Command, MetricsWorkload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The workload `scripts/verify.sh` smoke-tests: all defaults.
const WORKLOAD: MetricsWorkload = MetricsWorkload { sites: 2, chunks: 2, seed: 7, epsilon: 0.15 };

/// `--faults` at its default (drop, duplicate, reorder) probabilities.
const FAULTS: (f64, f64, f64) = (0.1, 0.05, 0.25);

/// What one default `simulate` run printed and wrote.
struct Outputs {
    report: String,
    journal: Option<String>,
    trace: Option<String>,
}

/// Runs `simulate` on the default workload — with the default fault plan
/// when `faults` — writing the journal and the Perfetto trace to fresh
/// temporary files when asked, and reads back everything it wrote.
fn simulate(faults: bool, journal: bool, trace: bool) -> Outputs {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let tag = format!("{}_{}", std::process::id(), RUNS.fetch_add(1, Ordering::Relaxed));
    let path = |wanted: bool, ext: &str| -> Option<PathBuf> {
        wanted.then(|| std::env::temp_dir().join(format!("cludistream_simulate_{tag}.{ext}")))
    };
    let (journal_path, trace_path) = (path(journal, "jsonl"), path(trace, "json"));
    let name = |p: &Option<PathBuf>| p.as_ref().map(|p| p.to_string_lossy().into_owned());
    let command = Command::Simulate {
        workload: WORKLOAD,
        reliable: false,
        faults: faults.then_some(FAULTS),
        journal: name(&journal_path),
        trace_out: name(&trace_path),
    };
    let mut out = Vec::new();
    run(command, &mut out).expect("simulate run succeeds");
    let read = |p: Option<PathBuf>| {
        p.map(|p| {
            let text = std::fs::read_to_string(&p).expect("file written");
            let _ = std::fs::remove_file(&p);
            text
        })
    };
    Outputs {
        report: String::from_utf8(out).expect("utf-8 report"),
        journal: read(journal_path),
        trace: read(trace_path),
    }
}

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(|s| s.to_string()).collect()
}

/// The microseconds the critical-path breakdown attributes to `category`.
/// Only the breakdown section is searched: the delivery block above it has
/// a `retransmitted:` line and the registry table `em.*` lines.
fn attributed_us(report: &str, category: &str) -> u64 {
    let breakdown = report.split("critical path over").nth(1).expect("breakdown present");
    let line = breakdown
        .lines()
        .find(|l| l.trim_start().starts_with(category))
        .unwrap_or_else(|| panic!("no {category} line:\n{report}"));
    let us = line.split_whitespace().nth(1).expect("value column");
    us.parse().expect("numeric microseconds")
}

#[test]
fn journal_is_deterministic_and_matches_fixture() {
    let first = simulate(false, true, false);
    let second = simulate(false, true, false);
    let (table, first) = (first.report, first.journal.expect("journal"));

    // Byte-identical across two consecutive runs.
    assert_eq!(Some(&first), second.journal.as_ref(), "journal not deterministic across runs");

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
fn simulate_args_parse() {
    match parse_args(&args("simulate --sites 3 --chunks 1 --journal x.jsonl")).expect("valid args")
    {
        Command::Simulate {
            workload: MetricsWorkload { sites, chunks, seed, epsilon, .. },
            journal,
            ..
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
fn simulate_without_journal_prints_table_only() {
    let mut out = Vec::new();
    run(
        Command::Simulate {
            workload: MetricsWorkload { sites: 2, chunks: 1, seed: 7, epsilon: 0.15 },
            reliable: false,
            faults: None,
            journal: None,
            trace_out: None,
        },
        &mut out,
    )
    .expect("simulate run succeeds");
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("coordinator groups:"), "{text}");
    assert!(!text.contains("journal written"), "{text}");
}

#[test]
fn fault_journal_is_deterministic_and_matches_fixture() {
    let first = simulate(true, true, false);
    let second = simulate(true, true, false);
    let (table, first) = (first.report, first.journal.expect("journal"));

    // Byte-identical across two consecutive runs: the fault trace replays.
    assert_eq!(
        Some(&first),
        second.journal.as_ref(),
        "fault journal not deterministic across runs"
    );

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
    let line = "simulate --faults --sites 3 --drop 0.2 --reorder 0 --journal x.jsonl";
    match parse_args(&args(line)).expect("valid args") {
        Command::Simulate {
            workload: MetricsWorkload { sites, chunks, seed, epsilon, .. },
            faults: Some((drop, duplicate, reorder)),
            journal,
            ..
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

#[test]
fn perfetto_export_is_deterministic_and_matches_fixture() {
    let first = simulate(true, false, true).trace.expect("trace written");
    let second = simulate(true, false, true).trace.expect("trace written");

    assert_eq!(first, second, "perfetto export not deterministic across runs");
    let fixture = include_str!("fixtures/trace_faults.json");
    assert_eq!(first, fixture, "export diverged from tests/fixtures/trace_faults.json");

    // The trace follows a chunk across the whole pipeline.
    for name in
        ["site.chunk", "site.em", "wire.synopsis", "wire.send", "coord.apply", "coord.simplex"]
    {
        assert!(first.contains(&format!("\"name\":\"{name}\"")), "no {name} span:\n{first}");
    }
}

#[test]
fn retransmit_share_is_zero_without_faults_and_positive_with() {
    let clean = simulate(false, false, true).report;
    assert_eq!(attributed_us(&clean, "retransmit"), 0, "fault-free run retransmitted:\n{clean}");
    let faulty = simulate(true, false, true).report;
    assert!(
        attributed_us(&faulty, "retransmit") > 0,
        "faults produced no retransmit time:\n{faulty}"
    );
    // Every attribution category is exercised by the faults workload.
    for cat in ["em", "simplex", "retransmit", "queueing"] {
        assert!(
            attributed_us(&faulty, cat) > 0,
            "{cat} attribution is zero under faults:\n{faulty}"
        );
    }
}

#[test]
fn trace_args_parse() {
    match parse_args(&args("simulate --sites 3 --faults --trace-out x.json")).expect("valid args") {
        Command::Simulate {
            workload: MetricsWorkload { sites, chunks, seed, epsilon, .. },
            faults,
            trace_out,
            ..
        } => {
            assert_eq!(sites, 3);
            assert_eq!(chunks, 2);
            assert_eq!(seed, 7);
            assert_eq!(epsilon, 0.15);
            assert_eq!(faults, Some(FAULTS));
            assert_eq!(trace_out.as_deref(), Some("x.json"));
        }
        other => panic!("parsed {other:?}"),
    }
}

/// `--faults --journal --trace-out` in one run: both files replay, and the
/// Perfetto export is the `--faults --trace-out` fixture. The journal is not
/// compared with a fixture: trace context rides the data frames, so its
/// byte counts differ from the untraced fault journal's.
#[test]
fn journal_and_trace_in_one_run_are_deterministic() {
    let first = simulate(true, true, true);
    let second = simulate(true, true, true);
    assert_eq!(first.journal, second.journal, "journal not deterministic across runs");
    assert_eq!(first.trace, second.trace, "perfetto export not deterministic across runs");
    assert_eq!(
        first.trace.as_deref(),
        Some(include_str!("fixtures/trace_faults.json")),
        "export diverged from tests/fixtures/trace_faults.json"
    );
    let report = &first.report;
    assert!(report.contains("delivery (reliable = true):"), "{report}");
    assert!(report.contains("counters:"), "{report}");
    assert!(report.contains("critical path over"), "{report}");
    assert!(report.contains("journal written to"), "{report}");
    assert!(report.contains("perfetto trace written to"), "{report}");
}
