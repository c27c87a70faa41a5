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
use std::io::{Read, Write};
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
            workload: MetricsWorkload { sites: SITES, chunks: 2, seed: 7, epsilon: 0.15 },
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

/// The `coordinator groups:` line of `metrics --reliable` on `sites` sites.
fn simulated_groups(sites: usize) -> String {
    let mut out = Vec::new();
    let workload = MetricsWorkload { sites, chunks: 2, seed: 7, epsilon: 0.15 };
    run(Command::Metrics { workload, journal: None, reliable: true }, &mut out)
        .expect("simulator run succeeds");
    groups_line(&String::from_utf8(out).expect("utf-8")).to_string()
}

/// A connection that never says `Hello` and declares a 1 MiB frame is cut
/// on its length prefix, long before 1 MiB of it arrives, while a live
/// 2-site round goes on undisturbed.
#[test]
fn a_connection_that_has_not_said_hello_is_cut_on_an_oversized_length_prefix() {
    let dir = std::env::temp_dir().join(format!("cludistream-prehello-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let port_file = dir.join("port.txt");
    let mut coordinator = Proc::new(bin())
        .args(["coordinator", "--sites", "2", "--deadline-s", "120"])
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let addr = wait_for_port(&port_file, &mut coordinator);
    let site = |i: usize| {
        Proc::new(bin())
            .args(["site", "--connect", &addr, "--site", &i.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn site {i}: {e}"))
    };
    // Site 1 is withheld, so the round is live while the stranger talks.
    let site0 = site(0);

    let mut stranger = std::net::TcpStream::connect(&addr).expect("connect");
    stranger.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut sent = 0usize;
    let declared = 1usize << 20;
    if stranger.write_all(&(declared as u32).to_le_bytes()).is_ok() {
        let zeros = [0u8; 4096];
        while sent < declared && stranger.write_all(&zeros).is_ok() {
            sent += zeros.len();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // The coordinator hung up: end of stream or a reset, not a timeout.
    let mut byte = [0u8; 1];
    match stranger.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("the coordinator answered a frame it should have refused"),
        Err(e) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the connection was still open after {sent} bytes: {e}"
        ),
    }
    assert!(sent < declared, "all {declared} bytes went through");

    let site1 = site(1);
    let outs = [read_all(site0, "site 0"), read_all(site1, "site 1")];
    let coord_out = read_all(coordinator, "coordinator");
    assert_eq!(groups_line(&coord_out), simulated_groups(2), "group counts diverged");
    assert!(coord_out.lines().any(|l| l.ends_with("dup/stale discarded: 0")), "{coord_out}");
    for (i, out) in outs.iter().enumerate() {
        assert!(
            out.lines().any(|l| l.ends_with("retransmitted: 0 msgs 0 bytes | resyncs: 0")),
            "site {i}:\n{out}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
