//! One module per figure of the paper's evaluation (Sec. 6), plus the
//! ablations DESIGN.md calls out.

mod ablation;
mod common;
mod fig01;
mod fig02;
mod fig03_04;
mod fig05_07;
mod fig08_10;
mod fig11_14;

use crate::table::Table;
use crate::Scale;

pub use common::RollingWindow;

/// All experiment ids in run order.
pub const ALL: &[&str] = &[
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "ablation",
];

/// A structural claim of the paper's evaluation: a predicate over the
/// tables of one experiment that needs no threshold. Claims read counts
/// and log likelihoods, never seconds, so they hold on any host; each
/// one is named after what it asserts, and `experiments --check` prints
/// that name when it fails.
pub struct Claim {
    /// What the claim asserts.
    pub name: &'static str,
    /// Whether the tables bear it out; false when a table or series it
    /// reads is missing.
    pub holds: fn(&[Table]) -> bool,
}

/// The claims of experiment `id` (none for an unknown id).
pub fn claims(id: &str) -> &'static [Claim] {
    match id {
        "fig1" => fig01::CLAIMS,
        "fig2" => fig02::CLAIMS,
        "fig13" => fig11_14::FIG13_CLAIMS,
        "fig14" => fig11_14::FIG14_CLAIMS,
        "ablation" => ablation::CLAIMS,
        _ => &[],
    }
}

/// The y values of the series `name` of table `id`, in x order; empty
/// when it is missing.
fn ys(tables: &[Table], id: &str, name: &str) -> Vec<f64> {
    let series = tables.iter().find(|t| t.id == id).and_then(|t| t.series(name));
    series.map_or_else(Vec::new, |s| s.points.iter().map(|p| p.1).collect())
}

/// Runs one experiment by id and returns its tables, which the caller
/// prints or emits. `None` for an unknown id.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Table>> {
    Some(match id {
        "fig1" => fig01::run(scale),
        "fig2" => fig02::run(scale),
        "fig3" => fig03_04::run_fig3(scale),
        "fig4" => fig03_04::run_fig4(scale),
        "fig5" => fig05_07::run_fig5(scale),
        "fig6" => fig05_07::run_fig6(scale),
        "fig7" => fig05_07::run_fig7(scale),
        "fig8" => fig08_10::run_fig8(scale),
        "fig9" => fig08_10::run_fig9(scale),
        "fig10" => fig08_10::run_fig10(scale),
        "fig11" => fig11_14::run_fig11(scale),
        "fig12" => fig11_14::run_fig12(scale),
        "fig13" => fig11_14::run_fig13(scale),
        "fig14" => fig11_14::run_fig14(scale),
        "ablation" => ablation::run(scale),
        _ => return None,
    })
}
