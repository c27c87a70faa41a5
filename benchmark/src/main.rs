//! The repository's benchmark: four workloads through the system's public
//! entry points, end-to-end numbers from timed runs with every observer
//! off, per-layer numbers from a separate traced run. See
//! `benchmark/README.md`.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! bench [--workload W] [--seed N] [--seconds S] [--out FILE]
//!                                     timed + traced, tables, result file
//! bench compare A.json B.json         B against A, bounds applied
//! ```

mod compare;
mod fanin;
mod inputs;
mod json;
mod layers;
mod perlayer;
mod sites;
mod spec;
mod stats;
mod timed;
mod traced;

use json::Json;
use perlayer::Traced;
use spec::Spec;
use std::process::ExitCode;
use timed::{Timed, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: String,
    detail: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        out: "benchmark/out/result.json".to_string(),
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value}; one of steady, drift, drift_tcp, fanin")
                })?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = value.clone(),
            "--detail" => parsed.detail = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => compare::compare(a, b).map(|regressions| regressions == 0),
            _ => Err("usage: compare A.json B.json".to_string()),
        }
    } else {
        parse_args(&args).and_then(|args| match args.trace {
            Some(trace) => single_run(&args, trace),
            None => full_run(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// A run's value of one end-to-end metric. Interference on a shared
/// machine only ever slows a repetition down — whole seconds at a time on
/// the machine the sizes were chosen on, which moved the median of a dozen
/// repetitions by up to 16 % between runs of the same code — so a run
/// reports its best repetition: the highest rate, the shortest time. Exact
/// counts repeat from one repetition to the next, so the choice does not
/// touch them. `setup_s` is the median of the run's set-ups.
fn run_value(metric: &spec::MetricSpec, summary: &stats::Summary) -> f64 {
    if metric.name == "setup_s" {
        summary.median
    } else if metric.higher_is_better {
        summary.max
    } else {
        summary.min
    }
}

/// The metrics of a timed run that `BENCHMARK.json` lists as end-to-end,
/// each summarised over the run's repetitions (`setup_s` over its
/// set-ups). A listed metric the run did not measure is an error.
fn end_to_end(spec: &Spec, timed: &Timed) -> Result<Vec<(spec::MetricSpec, stats::Summary)>, String> {
    spec.end_to_end
        .iter()
        .map(|metric| {
            let values: Vec<f64> = if metric.name == "setup_s" {
                timed.setup_s.clone()
            } else {
                timed
                    .repetitions
                    .iter()
                    .filter_map(|rep| rep.iter().find(|(n, _)| *n == metric.name).map(|(_, v)| *v))
                    .collect()
            };
            if values.is_empty() {
                return Err(format!("BENCHMARK.json lists {}, which no run measures", metric.name));
            }
            Ok((metric.clone(), stats::summarize(&values)))
        })
        .collect()
}

/// The traced run's metrics in `BENCHMARK.json`'s order. A listed metric
/// the workload does not exercise reads 0; a measured metric the file does
/// not list is an error, so the set stays closed.
fn per_layer(spec: &Spec, traced: &Traced) -> Result<Vec<(spec::MetricSpec, f64)>, String> {
    if let Some((name, _)) =
        traced.metrics.iter().find(|(n, _)| !spec.per_layer.iter().any(|m| m.name == *n))
    {
        return Err(format!("{name} is measured but not listed in BENCHMARK.json"));
    }
    Ok(spec
        .per_layer
        .iter()
        .map(|metric| {
            let value = traced.metrics.iter().find(|(n, _)| *n == metric.name).map_or(0.0, |(_, v)| *v);
            (metric.clone(), value)
        })
        .collect())
}

/// One run — what the driver calls: tables first, the result as the last
/// line of standard output, and with `--detail FILE` the same run's
/// fuller record (spread over repetitions, layer table, failed checks).
fn single_run(args: &Args, trace: bool) -> Result<bool, String> {
    let spec = Spec::load()?;
    let workload = args.workload.ok_or("--trace needs --workload")?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let mut detail = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
    ];
    let (metrics, ops, failed, failures) = if trace {
        let traced = perlayer::run(workload, args.seed, seconds)?;
        let layers = per_layer(&spec, &traced)?;
        print_layer_table(workload, &traced);
        for (metric, value) in &layers {
            println!("  {:<40} {:>16.6} {}", metric.name, value, metric.unit);
        }
        let metrics: Vec<(String, Json)> =
            layers.into_iter().map(|(m, value)| (m.name, metric_json(value, &m.unit))).collect();
        detail.extend([
            ("per_layer".to_string(), Json::Obj(metrics.clone())),
            (
                "layer_self_s".to_string(),
                Json::Obj(traced.layer_self_s.iter().map(|(l, s)| (l.to_string(), Json::Num(*s))).collect()),
            ),
            ("untraced_wall_s".to_string(), Json::Num(traced.untraced_wall_s)),
            ("traced_wall_s".to_string(), Json::Num(traced.traced_wall_s)),
            ("trace_file".to_string(), Json::str(traced.trace_file.display().to_string())),
            ("notes".to_string(), Json::Arr(traced.notes.iter().map(|n| Json::str(n.as_str())).collect())),
        ]);
        for note in &traced.notes {
            println!("  NOTE: {note}");
        }
        (metrics, traced.ops, traced.failed, traced.failures)
    } else {
        let timed = timed::run(workload, args.seed, seconds)?;
        let e2e = end_to_end(&spec, &timed)?;
        println!("  ops {}  failed {}  repetitions {}", timed.ops, timed.failed, timed.repetitions.len());
        for (metric, s) in &e2e {
            println!(
                "  {:<22} {:>16.6} {:<6} (median {:.6}, min {:.6}, max {:.6}, n {}; {} is better, bound {} %)",
                metric.name,
                run_value(metric, s),
                metric.unit,
                s.median,
                s.min,
                s.max,
                s.n,
                better(metric),
                100.0 * metric.bound.unwrap_or(0.0)
            );
        }
        detail.extend([
            ("ops".to_string(), Json::Num(timed.ops as f64)),
            ("failed".to_string(), Json::Num(timed.failed as f64)),
            ("repetitions".to_string(), Json::Num(timed.repetitions.len() as f64)),
            (
                "end_to_end".to_string(),
                Json::Obj(
                    e2e.iter()
                        .map(|(m, s)| {
                            let summary = Json::obj([
                                ("value", Json::Num(run_value(m, s))),
                                ("median", Json::Num(s.median)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                                ("min", Json::Num(s.min)),
                                ("max", Json::Num(s.max)),
                                ("n", Json::Num(s.n as f64)),
                                ("unit", Json::str(&m.unit)),
                                ("better", Json::str(better(m))),
                                ("bound", Json::Num(m.bound.unwrap_or(0.0))),
                            ]);
                            (m.name.clone(), summary)
                        })
                        .collect(),
                ),
            ),
        ]);
        let metrics: Vec<(String, Json)> = e2e
            .into_iter()
            .map(|(m, summary)| {
                let value = run_value(&m, &summary);
                (m.name, metric_json(value, &m.unit))
            })
            .collect();
        (metrics, timed.ops, timed.failed, timed.failures)
    };
    for failure in &failures {
        println!("  CHECK FAILED: {failure}");
    }
    if let Some(path) = &args.detail {
        detail.push((
            "failed_checks".to_string(),
            Json::Arr(failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ));
        write_json(path, &Json::Obj(detail))?;
    }
    let result = Json::obj([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Num(ops.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(failures.is_empty())
}

fn better(metric: &spec::MetricSpec) -> &'static str {
    if metric.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn write_json(path: &str, json: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Every workload (or the one named), timed then traced, and one result
/// file. Each run is a process of its own — exactly the command the driver
/// issues — so that no run inherits another's threads, allocator state or
/// caches, and the numbers are the driver's numbers.
fn full_run(args: &Args) -> Result<bool, String> {
    let spec = Spec::load()?;
    let header = header(args);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let load = load_average();
    if load > nproc {
        return Err(format!(
            "the 1-minute load average is {load}, above the {nproc} cores: a measurement now \
             would be of the other load; try again when it has dropped"
        ));
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    let mut all_passed = true;
    for workload in workloads {
        let mut entry: Vec<(String, Json)> = Vec::new();
        let mut failed_checks = Vec::new();
        for trace in ["0", "1"] {
            println!("== {} (seed {}, {seconds} s, trace {trace}) ==", workload.name(), args.seed);
            let detail = format!("benchmark/out/detail_{}_{trace}.json", workload.name());
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace, "--detail", &detail])
                .args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()])
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            // 0: all checks passed; 1: a check failed, the detail says which.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!("the {} run (trace {trace}) ended with {status}", workload.name()));
            }
            let text = std::fs::read_to_string(&detail).map_err(|e| format!("cannot read {detail}: {e}"))?;
            let json = Json::parse(&text).map_err(|e| format!("{detail}: {e}"))?;
            for (key, value) in json.as_obj() {
                match key.as_str() {
                    "workload" | "seed" => {}
                    "failed_checks" => failed_checks.extend(value.as_arr().iter().cloned()),
                    _ => entry.push((key.clone(), value.clone())),
                }
            }
            let _ = std::fs::remove_file(&detail);
        }
        all_passed &= failed_checks.is_empty();
        entry.push(("failed_checks".to_string(), Json::Arr(failed_checks)));
        results.push((workload.name().to_string(), Json::Obj(entry)));
    }
    write_json(&args.out, &Json::obj([("header", header), ("workloads", Json::Obj(results))]))?;
    println!("result written to {}", args.out);
    Ok(all_passed)
}

/// The replay's layer table against the untraced wall.
fn print_layer_table(workload: Workload, traced: &Traced) {
    println!("  layer budget of {} (replayed self time against the untraced wall):", workload.name());
    let mut attributed = 0.0;
    for (layer, seconds) in &traced.layer_self_s {
        attributed += seconds;
        println!("    {layer:<14} {seconds:>10.4} s {:>7.2} %", 100.0 * seconds / traced.untraced_wall_s);
    }
    println!(
        "    {:<14} {attributed:>10.4} s {:>7.2} %   untraced wall {:.4} s, traced wall {:.4} s",
        "sum",
        100.0 * attributed / traced.untraced_wall_s,
        traced.untraced_wall_s,
        traced.traced_wall_s
    );
    println!("  trace written to {}", traced.trace_file.display());
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Where and on what the result was measured.
fn header(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()))),
        ("cpu", Json::str(cpu)),
        ("loadavg_1m_at_start", Json::Num(load_average())),
        ("seed", Json::Num(args.seed as f64)),
    ])
}
