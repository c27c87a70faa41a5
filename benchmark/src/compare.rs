//! `run.sh compare A.json B.json`: B against A, one row per workload and
//! end-to-end metric, with the direction and the bound the result files
//! carry applied.

use crate::json::Json;

/// One result file's record of a metric: the run's value and how its
/// repetitions spread.
struct Side {
    value: f64,
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

fn side(metric: &Json) -> Option<Side> {
    let field = |name: &str| metric.get(name)?.as_f64();
    Some(Side {
        value: field("value")?,
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        min: field("min")?,
        max: field("max")?,
    })
}

/// Prints the table and returns how many rows regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<usize, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads_a = a.get("workloads").ok_or_else(|| format!("{a_path}: no \"workloads\""))?;
    let workloads_b = b.get("workloads").ok_or_else(|| format!("{b_path}: no \"workloads\""))?;
    println!(
        "{:<10} {:<20} {:>6} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "better", "A", "B", "worse %", "bound %"
    );
    let mut regressions = 0;
    for (workload, in_a) in workloads_a.as_obj() {
        let Some(in_b) = workloads_b.get(workload) else { continue };
        let Some(metrics) = in_a.get("end_to_end") else { continue };
        for (name, metric_a) in metrics.as_obj() {
            let Some(metric_b) = in_b.get("end_to_end").and_then(|m| m.get(name)) else { continue };
            let (Some(a), Some(b)) = (side(metric_a), side(metric_b)) else { continue };
            let higher = metric_a.get("better").and_then(Json::as_str) == Some("higher");
            let bound = metric_a.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            // How much worse B's value is, as a share of A's.
            let worse = if higher { (a.value - b.value) / a.value } else { (b.value - a.value) / a.value };
            // The spread between a side's own repetitions: the distance
            // between their quartiles, as a share of their median.
            let spread = |s: &Side| (s.q3 - s.q1) / s.median.abs();
            let every_run_better = if higher { b.min > a.max } else { b.max < a.min };
            let verdict = if (spread(&a) > bound || spread(&b) > bound) && !every_run_better {
                "unresolved"
            } else if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<10} {name:<20} {:>6} {:>14.6} {:>14.6} {:>8.2} {:>6.2}  {verdict}",
                if higher { "higher" } else { "lower" },
                a.value,
                b.value,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    Ok(regressions)
}
