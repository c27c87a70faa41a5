//! The timed run of one workload: set-up several times over, then
//! repetitions of the workload for the run's length, every repetition's
//! outputs checked.

use crate::fanin;
use crate::inputs::{self, FaninInput, FANIN_SITES};
use crate::sites::{self, Kind};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Nine, so that two set-ups hit
/// by another tenant's burst (seen: two of five at twice the time) leave both
/// quartiles alone.
const SETUPS: usize = 9;
/// Repetitions a run makes at the least, however short `--seconds` is:
/// exact counts are checked to repeat from one to the next.
const MIN_REPETITIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Drift,
    DriftTcp,
    Fanin,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Steady, Workload::Drift, Workload::DriftTcp, Workload::Fanin];

    /// The site recipe behind the workload; `fanin` has none.
    fn site_kind(self) -> Option<Kind> {
        match self {
            Workload::Steady => Some(Kind::Steady),
            Workload::Drift => Some(Kind::Drift),
            Workload::DriftTcp => Some(Kind::DriftTcp),
            Workload::Fanin => None,
        }
    }

    pub fn name(self) -> &'static str {
        self.site_kind().map_or("fanin", Kind::name)
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub enum Prepared {
    Sites(Box<sites::Prepared>),
    Fanin(FaninInput),
}

/// Set-up: generates the workload's inputs from the seed and makes its
/// dry run (a prefix of the recipe on `steady`, `drift` and `fanin`; the
/// whole recipe over simnet on `drift_tcp`, whose decisions the socket run
/// must repeat).
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    Ok(match workload.site_kind() {
        Some(kind) => Prepared::Sites(Box::new(sites::prepare(kind, seed)?)),
        None => {
            let input = inputs::fanin(seed);
            fanin::run(&input, FANIN_SITES, None)?;
            Prepared::Fanin(input)
        }
    })
}

/// One repetition's end-to-end values, by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// What one repetition of any workload reports.
pub struct Repetition {
    pub records_per_s: f64,
    pub bytes_per_record: f64,
    pub synopses_per_s: f64,
    pub state_kb: f64,
    pub ops: u64,
    pub failed: u64,
    /// Counts that must repeat exactly from one repetition to the next.
    pub exact: Vec<u64>,
}

pub struct Timed {
    pub prepared: Prepared,
    pub setup_s: Vec<f64>,
    pub repetitions: Vec<Values>,
    /// Operations offered and failed, over all repetitions.
    pub ops: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
}

/// Prepares [`SETUPS`] times, keeping the last.
fn set_up(workload: Workload, seed: u64) -> Result<(Prepared, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(prepare(workload, seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    Ok((prepared.expect("SETUPS is at least 1"), setup_s))
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Timed, String> {
    let (prepared, setup_s) = set_up(workload, seed)?;
    let mut timed = Timed {
        prepared,
        setup_s,
        repetitions: Vec::new(),
        ops: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut exact: Vec<Vec<u64>> = Vec::new();
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let done = timed.repetitions.len();
        // Another repetition only while half of it still fits the run.
        let fits = done == 0 || elapsed + 0.5 * elapsed / done as f64 <= seconds;
        if done >= MIN_REPETITIONS && !fits {
            break;
        }
        let rep = match &timed.prepared {
            Prepared::Sites(prepared) => sites::repetition(prepared, &mut timed.failures)?,
            Prepared::Fanin(input) => fanin::repetition(input, &mut timed.failures)?,
        };
        timed.repetitions.push(vec![
            ("records_per_s", rep.records_per_s),
            ("bytes_per_record", rep.bytes_per_record),
            ("synopses_per_s", rep.synopses_per_s),
            ("state_kb", rep.state_kb),
        ]);
        timed.ops += rep.ops;
        timed.failed += rep.failed;
        exact.push(rep.exact);
    }
    if exact.windows(2).any(|pair| pair[0] != pair[1]) {
        timed.failures.push(format!(
            "{}: exact counts differ between repetitions: {exact:?}",
            workload.name()
        ));
    }
    if timed.failed > 0 {
        timed.failures.push(format!(
            "{}: {} of {} operations failed",
            workload.name(),
            timed.failed,
            timed.ops
        ));
    }
    Ok(timed)
}
