//! # smack-bench
//!
//! Experiment harnesses that regenerate every table and figure in the
//! SMaCk paper's evaluation, printing the same rows/series the paper
//! reports and writing CSVs under `target/repro/`.
//!
//! Every experiment is a descriptor in the declarative
//! [`registry`]: name, title, group, CSV files, and a
//! run function over a [`registry::Ctx`]. One binary, `all`, looks
//! experiments up by name through the shared [`cli`]:
//!
//! | Name | Paper artifact |
//! |---|---|
//! | `fig1` | Figure 1 — probe timing per cache state (+ Mastik row) |
//! | `fig2` | Figure 2 — SMC counter reverse engineering (Intel + AMD) |
//! | `table1` | Table 1 — covert-channel bandwidth & error rates |
//! | `fig3` | Figure 3 — receiver timing trace with assigned bits |
//! | `fig4` | Figure 4 — multiplication-set activity |
//! | `fig5` | Figure 5 — traces needed for 70% RSA key recovery |
//! | `table2` | Table 2 — SRP leakage: Prime+iStore vs Mastik |
//! | `fig6` | Figure 6 — SRP single-trace pattern timeline |
//! | `table3` | Table 3 — ISpectre applicability matrix |
//! | `table4` | Table 4 — ISpectre leakage rates (B/s) |
//! | `table5` | §6.1 — detection accuracy / F-score / FPR |
//! | `fingerprint` | Case Study II — library fingerprinting |
//! | `analyze` | static leakage verdicts vs measured recovery |
//! | `ablations` | every ablation study (the `ablation_*` experiments) |
//!
//! `all` with no names runs the eleven paper artifacts in sequence. It
//! accepts `--full` (paper-scale sample counts), `--threads N`
//! (trial-runner workers), `--out DIR` and `--list` — see [`cli`].

pub mod ablations;
pub mod cli;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod runner;

/// Run mode for the harnesses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mode {
    /// CI-sized sample counts (default).
    Quick,
    /// Paper-scale sample counts.
    Full,
}

impl Mode {
    /// Pick a size by mode.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Mode::Quick => quick,
            Mode::Full => full,
        }
    }
}
