//! The declarative experiment registry.
//!
//! Every paper artifact (figures 1–6, tables 1–5), the fingerprinting
//! case study and each ablation is one [`Experiment`] descriptor: a name,
//! a title, the CSV files it owns, and a run function.
//!
//! Orchestrators enumerate [`registry`] instead of hard-coding harness
//! functions; adding a workload is adding one descriptor. The CLI
//! (`crate::cli`) looks experiments up here by name.
//!
//! A run function only measures: it returns a [`Report`] — its named
//! tables and closing note — or an error naming the trial that failed.
//! [`run_selection`] is the one place that prints banners and tables,
//! writes CSVs and turns a failure into an error.

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::{banner, Table};
use crate::runner::Runner;
use crate::{ablations, experiments, Mode};

/// Which bundle an experiment belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Group {
    /// A paper evaluation artifact — what `all` runs by default.
    Paper,
    /// An ablation study (`all ablations`).
    Ablation,
    /// A case-study extra, run by name (`all fingerprint`, `all analyze`).
    CaseStudy,
}

/// One registered experiment. See the [module documentation](self).
pub struct Experiment {
    /// CLI name (`all <name>`).
    pub name: &'static str,
    /// Human-readable one-liner for `--list` and the run banner.
    pub title: &'static str,
    /// Bundle membership.
    pub group: Group,
    /// CSV files this experiment writes (without `.csv`), in the order
    /// its [`Report`] returns the tables.
    pub csvs: &'static [&'static str],
    /// Run the experiment under a context.
    pub run: fn(&Ctx) -> Result<Report, String>,
}

/// What an experiment measured: its tables, each named by the CSV it is
/// written to, and the note printed under them.
pub struct Report {
    /// `(csv name, table)` pairs, in [`Experiment::csvs`] order.
    pub tables: Vec<(&'static str, Table)>,
    /// The closing note (empty for none).
    pub note: String,
}

impl Report {
    /// A report of one table, written as `<csv>.csv`, and its note.
    pub fn new(csv: &'static str, table: Table, note: impl Into<String>) -> Report {
        Report { tables: vec![(csv, table)], note: note.into() }
    }
}

/// Execution context handed to every experiment: the run mode, the trial
/// runner, and the CSV output directory.
pub struct Ctx {
    /// Quick or paper-scale sample counts.
    pub mode: Mode,
    /// The trial runner every experiment fans out through (threads apply
    /// uniformly — experiments never consult the environment themselves).
    pub runner: Runner,
    /// CSV output directory (`None` = `target/repro/`).
    pub out_dir: Option<PathBuf>,
}

/// Prefix an error with the trial (or step) it came from, so a failure
/// reads `table2: group 4096, key 17: <error>` once the registry adds the
/// experiment's name.
pub(crate) trait Context<T> {
    fn context(self, what: impl Display) -> Result<T, String>;
}

impl<T, E: Display> Context<T> for Result<T, E> {
    fn context(self, what: impl Display) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Every experiment, in the order `all` runs the paper artifacts.
pub fn registry() -> &'static [Experiment] {
    static REGISTRY: &[Experiment] = &[
        Experiment {
            name: "fig1",
            title: "Figure 1 — probe timing per cache state (+ Mastik row)",
            group: Group::Paper,
            csvs: &["fig1"],
            run: experiments::fig1,
        },
        Experiment {
            name: "fig2",
            title: "Figure 2 — SMC counter reverse engineering (Intel + AMD)",
            group: Group::Paper,
            csvs: &["fig2_intel", "fig2_amd"],
            run: experiments::fig2,
        },
        Experiment {
            name: "table1",
            title: "Table 1 — covert-channel bandwidth & error rates",
            group: Group::Paper,
            csvs: &["table1"],
            run: experiments::table1,
        },
        Experiment {
            name: "fig3",
            title: "Figure 3 — receiver timing trace with assigned bits",
            group: Group::Paper,
            csvs: &["fig3"],
            run: experiments::fig3,
        },
        Experiment {
            name: "fig4",
            title: "Figure 4 — multiplication-set activity",
            group: Group::Paper,
            csvs: &["fig4"],
            run: experiments::fig4,
        },
        Experiment {
            name: "fig5",
            title: "Figure 5 — traces needed for 70% RSA key recovery",
            group: Group::Paper,
            csvs: &["fig5"],
            run: experiments::fig5,
        },
        Experiment {
            name: "table2",
            title: "Table 2 — SRP leakage: Prime+iStore vs Mastik",
            group: Group::Paper,
            csvs: &["table2"],
            run: experiments::table2,
        },
        Experiment {
            name: "fig6",
            title: "Figure 6 — SRP single-trace pattern timeline",
            group: Group::Paper,
            csvs: &["fig6"],
            run: experiments::fig6,
        },
        Experiment {
            name: "table3",
            title: "Table 3 — ISpectre applicability matrix",
            group: Group::Paper,
            csvs: &["table3"],
            run: experiments::table3,
        },
        Experiment {
            name: "table4",
            title: "Table 4 — ISpectre leakage rates (B/s)",
            group: Group::Paper,
            csvs: &["table4"],
            run: experiments::table4,
        },
        Experiment {
            name: "table5",
            title: "§6.1 — detection accuracy / F-score / FPR",
            group: Group::Paper,
            csvs: &["table5"],
            run: experiments::table5,
        },
        Experiment {
            name: "fingerprint",
            title: "Case Study II steps 1–2 — library fingerprinting",
            group: Group::CaseStudy,
            csvs: &["fingerprint"],
            run: experiments::fingerprint,
        },
        Experiment {
            name: "analyze",
            title: "Static leakage analyzer — taint verdicts vs measured recovery",
            group: Group::CaseStudy,
            csvs: &["analyze"],
            run: experiments::analyze,
        },
        Experiment {
            name: "ablation_smc_penalty",
            title: "Ablation — SMC latency surcharge vs channel error rate",
            group: Group::Ablation,
            csvs: &["ablation_smc_penalty"],
            run: ablations::smc_penalty_sweep,
        },
        Experiment {
            name: "ablation_frontend",
            title: "Ablation — front-end L2-latency hiding vs the Mastik margin",
            group: Group::Ablation,
            csvs: &["ablation_frontend"],
            run: ablations::frontend_ablation,
        },
        Experiment {
            name: "ablation_timer",
            title: "Ablation — rdtsc resolution vs channel error rate",
            group: Group::Ablation,
            csvs: &["ablation_timer"],
            run: ablations::timer_resolution_sweep,
        },
        Experiment {
            name: "ablation_tau_w",
            title: "Ablation — τ_w (prime→probe wait) vs RSA recovery",
            group: Group::Ablation,
            csvs: &["ablation_tau_w"],
            run: ablations::tau_w_sweep,
        },
        Experiment {
            name: "ablation_tau_jitter",
            title: "Ablation — fixed vs jittered exposure window (RSA voting)",
            group: Group::Ablation,
            csvs: &["ablation_tau_jitter"],
            run: ablations::tau_jitter_sweep,
        },
        Experiment {
            name: "ablation_countermeasure",
            title: "§6.2 — constant-time exponentiation defeats the attack",
            group: Group::Ablation,
            csvs: &["ablation_countermeasure"],
            run: ablations::countermeasure,
        },
        Experiment {
            name: "ablation_slowdown",
            title: "Ablation — victim slowdown under SMC machine-clear storms",
            group: Group::Ablation,
            csvs: &["ablation_slowdown"],
            run: ablations::sibling_slowdown,
        },
    ];
    REGISTRY
}

/// Look an experiment up by CLI name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.name == name)
}

/// The experiments of one group, in registry order.
pub fn group(group: Group) -> Vec<&'static Experiment> {
    registry().iter().filter(|e| e.group == group).collect()
}

/// Run a selection of experiments in order under one context, printing
/// each one's banner, tables and note and writing its CSVs. A failing
/// experiment does not stop the ones after it. Returns per-experiment
/// wall times and one `<experiment>: <message>` error per failure.
pub fn run_selection(
    selection: &[&Experiment],
    ctx: &Ctx,
) -> (Vec<(&'static str, Duration)>, Vec<String>) {
    let mut times = Vec::new();
    let mut errors = Vec::new();
    for exp in selection {
        let start = Instant::now();
        if let Err(e) = run_one(exp, ctx) {
            errors.push(format!("{}: {e}", exp.name));
        }
        times.push((exp.name, start.elapsed()));
    }
    (times, errors)
}

/// Run one experiment and report it: banner, then each table printed and
/// written as its CSV, then the note.
fn run_one(exp: &Experiment, ctx: &Ctx) -> Result<(), String> {
    banner(exp.title);
    let report = (exp.run)(ctx)?;
    let names: Vec<&str> = report.tables.iter().map(|(name, _)| *name).collect();
    if names != exp.csvs {
        return Err(format!("returned tables {names:?}, but the registry lists {:?}", exp.csvs));
    }
    for (name, table) in &report.tables {
        table.print();
        let path = table
            .try_write_csv_in(ctx.out_dir.as_deref(), name)
            .context(format_args!("writing {name}.csv"))?;
        println!("[csv] {}", path.display());
    }
    if !report.note.is_empty() {
        println!();
        println!("{}", report.note);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_csvs_are_unique() {
        let names: HashSet<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), registry().len());
        let csvs: Vec<&str> = registry().iter().flat_map(|e| e.csvs.iter().copied()).collect();
        let set: HashSet<&str> = csvs.iter().copied().collect();
        assert_eq!(set.len(), csvs.len(), "every CSV owned by one experiment");
    }

    #[test]
    fn paper_group_matches_the_historical_all_sequence() {
        let names: Vec<&str> = group(Group::Paper).iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig1", "fig2", "table1", "fig3", "fig4", "fig5", "table2", "fig6", "table3",
                "table4", "table5"
            ]
        );
    }

    #[test]
    fn every_experiment_is_enumerable_by_name() {
        for exp in registry() {
            assert!(std::ptr::eq(find(exp.name).expect("findable"), exp));
        }
        assert!(find("nope").is_none());
    }
}
