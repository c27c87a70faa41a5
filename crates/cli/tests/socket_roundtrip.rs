//! Multi-process loopback round: one real `cludistream coordinator`
//! process and three real `cludistream site` processes talking TCP over
//! 127.0.0.1, then a byte-level diff of each site's journal against the
//! same workload run through the deterministic simulator.
//!
//! This is the ISSUE acceptance check in test form: the socket runtime
//! must reach the same merge/split decisions (`coordinator groups:`) and
//! emit the identical protocol event stream — chunk tests,
//! re-clusterings, synopsis byte counts — as `metrics --reliable`. Only
//! timestamps may differ (simulated vs. wall clock).

use cludistream_cli::{run, Command, MetricsWorkload};
use std::io::Read;
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

const SITES: usize = 3;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cludistream")
}

/// Polls the coordinator's `--port-file` until the address appears.
fn wait_for_port(path: &std::path::Path, child: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if !addr.is_empty() {
                return addr;
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("coordinator exited before publishing its port: {status}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("coordinator never wrote {}", path.display());
}

fn read_all(mut child: Child, name: &str) -> String {
    let status = child.wait().unwrap_or_else(|e| panic!("{name}: wait: {e}"));
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut text).unwrap_or_else(|e| panic!("{name}: read: {e}"));
    }
    let mut err = String::new();
    if let Some(mut stderr) = child.stderr.take() {
        let _ = stderr.read_to_string(&mut err);
    }
    assert!(status.success(), "{name} failed ({status})\nstdout:\n{text}\nstderr:\n{err}");
    text
}

/// Protocol-determined journal lines for one site, timestamps stripped.
fn site_events(journal: &str, site: usize) -> Vec<String> {
    let needle = format!("\"site\":{site}");
    journal
        .lines()
        .filter(|l| {
            ["\"event\":\"ChunkTested\"", "\"event\":\"Reclustered\"", "\"event\":\"SynopsisSent\""]
                .iter()
                .any(|e| l.contains(e))
        })
        .filter(|l| l.contains(&needle))
        .map(|l| match (l.find("\"t\":"), l.find(',')) {
            (Some(start), Some(end)) if start < end => format!("{}{}", &l[..start], &l[end + 1..]),
            _ => l.to_string(),
        })
        .collect()
}

fn groups_line(text: &str) -> &str {
    text.lines()
        .find(|l| l.starts_with("coordinator groups:"))
        .unwrap_or_else(|| panic!("no group count in output:\n{text}"))
}

#[test]
fn three_site_loopback_round_matches_the_simulator() {
    let dir = std::env::temp_dir().join(format!("cludistream-socket-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let port_file = dir.join("port.txt");

    let mut coordinator = Proc::new(bin())
        .args(["coordinator", "--sites", "3", "--deadline-s", "120"])
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let addr = wait_for_port(&port_file, &mut coordinator);

    let site_procs: Vec<Child> = (0..SITES)
        .map(|i| {
            Proc::new(bin())
                .args(["site", "--connect", &addr, "--site", &i.to_string()])
                .arg("--journal")
                .arg(dir.join(format!("site{i}.jsonl")))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn site {i}: {e}"))
        })
        .collect();

    for (i, child) in site_procs.into_iter().enumerate() {
        read_all(child, &format!("site {i}"));
    }
    let coord_out = read_all(coordinator, "coordinator");

    // The same workload through the simulator, in-process.
    let sim_journal = dir.join("sim.jsonl");
    let mut sim_out = Vec::new();
    run(
        Command::Metrics {
            workload: MetricsWorkload {
                sites: SITES,
                chunks: 2,
                seed: 7,
                epsilon: 0.15,
                threads: 1,
            },
            journal: Some(sim_journal.to_string_lossy().into_owned()),
            reliable: true,
        },
        &mut sim_out,
    )
    .expect("simulator run succeeds");
    let sim_out = String::from_utf8(sim_out).expect("utf-8");

    // Identical merge/split decisions.
    assert_eq!(groups_line(&coord_out), groups_line(&sim_out), "group counts diverged");

    // Identical per-site protocol events (chunk outcomes, re-clustering
    // points, synopsis byte counts), modulo timestamps.
    let sim = std::fs::read_to_string(&sim_journal).expect("sim journal");
    for i in 0..SITES {
        let tcp = std::fs::read_to_string(dir.join(format!("site{i}.jsonl")))
            .unwrap_or_else(|e| panic!("site {i} journal: {e}"));
        let sim_events = site_events(&sim, i);
        let tcp_events = site_events(&tcp, i);
        assert!(!sim_events.is_empty(), "site {i}: simulator emitted no events");
        assert_eq!(tcp_events, sim_events, "site {i}: event streams diverged");
    }

    std::fs::remove_dir_all(&dir).ok();
}
