#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! Experiment harness for the CluDistream reproduction.
//!
//! One function per figure of the paper's evaluation section (Sec. 6),
//! each printing the same series the figure plots and writing a CSV under
//! `results/`. The `experiments` binary dispatches on figure ids; see
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured notes.

pub mod figs;
pub mod table;
pub mod timing;
pub mod workloads;

/// Global scale factor for experiment sizes. `1.0` reproduces the default
/// (laptop-scale) settings; larger values stretch stream lengths toward
/// the paper's 100k-update runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Scales a record count.
    pub fn updates(&self, base: usize) -> usize {
        ((base as f64) * self.0).round().max(1.0) as usize
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}
