//! Golden-file test for the `trace` Perfetto export.
//!
//! Span ids are allocated in simulator dispatch order and stamped with
//! sim-time, so the Chrome trace-event JSON of the default
//! `cludistream trace --faults` workload must be byte-identical across
//! runs and match the committed fixture at
//! `tests/fixtures/trace_faults.json`. `scripts/verify.sh` performs the
//! same diff against the release binary.

use cludistream_cli::{parse_args, run, Command, MetricsWorkload};

fn default_trace(faults: bool, out: Option<&std::path::Path>) -> Command {
    Command::Trace {
        workload: MetricsWorkload { sites: 2, chunks: 2, seed: 7, epsilon: 0.15 },
        faults,
        out: out.map(|p| p.to_string_lossy().into_owned()),
    }
}

fn run_trace(faults: bool, out: Option<&std::path::Path>) -> String {
    let mut table = Vec::new();
    run(default_trace(faults, out), &mut table).expect("trace run succeeds");
    String::from_utf8(table).expect("utf-8 output")
}

/// The `retransmit ... us` value from the critical-path table.
fn retransmit_us(table: &str) -> u64 {
    let line = table
        .lines()
        .find(|l| l.trim_start().starts_with("retransmit"))
        .expect("retransmit line present");
    let us = line.split_whitespace().nth(1).expect("value column");
    us.parse().expect("numeric microseconds")
}

#[test]
fn perfetto_export_is_deterministic_and_matches_fixture() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let a = dir.join(format!("cludistream_trace_{pid}_a.json"));
    let b = dir.join(format!("cludistream_trace_{pid}_b.json"));
    run_trace(true, Some(&a));
    run_trace(true, Some(&b));
    let first = std::fs::read_to_string(&a).expect("trace written");
    let second = std::fs::read_to_string(&b).expect("trace written");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);

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
    let clean = run_trace(false, None);
    assert_eq!(retransmit_us(&clean), 0, "fault-free run retransmitted:\n{clean}");
    let faulty = run_trace(true, None);
    assert!(retransmit_us(&faulty) > 0, "faults produced no retransmit time:\n{faulty}");
    // Every attribution category is exercised by the faults workload.
    for cat in ["em", "simplex", "retransmit", "queueing"] {
        let line = faulty
            .lines()
            .find(|l| l.trim_start().starts_with(cat))
            .unwrap_or_else(|| panic!("no {cat} line:\n{faulty}"));
        let us: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(us > 0, "{cat} attribution is zero under faults:\n{faulty}");
    }
}

#[test]
fn trace_args_parse() {
    let args: Vec<String> = ["trace", "--sites", "3", "--faults", "--out", "x.json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match parse_args(&args).expect("valid args") {
        Command::Trace {
            workload: MetricsWorkload { sites, chunks, seed, epsilon, .. }, faults, out
        } => {
            assert_eq!(sites, 3);
            assert_eq!(chunks, 2);
            assert_eq!(seed, 7);
            assert_eq!(epsilon, 0.15);
            assert!(faults);
            assert_eq!(out.as_deref(), Some("x.json"));
        }
        other => panic!("parsed {other:?}"),
    }
}
