//! Experiment runner: regenerates every figure of the paper's evaluation.
//!
//! ```text
//! experiments all                # every figure + ablations
//! experiments fig2 fig5 fig13    # specific figures
//! experiments --scale 2.0 fig8   # stretch stream lengths
//! experiments --check fig1 fig2  # the figures' structural claims
//! experiments --list             # available ids
//! ```
//!
//! `--check` runs the named figures, prints their tables without writing
//! `results/`, and tests each figure's structural claims on them (see
//! `figs::Claim`): it prints one `claim ok` or `claim FAILED` line per
//! claim and exits non-zero when any claim failed.

use cludistream_bench::{figs, table, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::default();
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for id in figs::ALL {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--check" => check = true,
            "--scale" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--scale needs a positive number");
                    return ExitCode::FAILURE;
                };
                if v.is_nan() || v <= 0.0 {
                    eprintln!("--scale needs a positive number");
                    return ExitCode::FAILURE;
                }
                scale = Scale(v);
            }
            "all" => ids.extend(figs::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; try --list");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: experiments [--scale S] [--check] (all | fig1 .. fig14 | ablation)+");
        eprintln!("       experiments --list");
        return ExitCode::FAILURE;
    }

    let mut failed = Vec::new();
    for id in &ids {
        println!("\n######## {id} (scale {}) ########", scale.0);
        let start = std::time::Instant::now();
        let Some(tables) = figs::run(id, scale) else {
            eprintln!("unknown experiment id: {id} (try --list)");
            return ExitCode::FAILURE;
        };
        for t in &tables {
            if check {
                println!("{}", table::render_table(&t.title, &t.x_label, &t.series));
            } else {
                table::emit(t);
            }
        }
        if check {
            for claim in figs::claims(id) {
                let holds = (claim.holds)(&tables);
                println!("claim {}: {}", if holds { "ok" } else { "FAILED" }, claim.name);
                if !holds {
                    failed.push(claim.name);
                }
            }
        }
        println!("[{id} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
    if !failed.is_empty() {
        eprintln!("experiments --check: {} claim(s) failed:", failed.len());
        for name in failed {
            eprintln!("  {name}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
