//! The declarative experiment registry.
//!
//! Every paper artifact (figures 1–6, tables 1–5), the fingerprinting
//! case study and each ablation is one [`Experiment`] descriptor: a name,
//! a title, the CSV files it owns, its *unit* count, and a run function.
//! A unit is the experiment's schedulable atom — a probe class for fig5,
//! an SRP group for table2, a (processor, probe) cell for table4, a victim
//! for analyze, the whole experiment for the single-scene figures — and
//! every CSV row is a pure function of its unit index, which is what lets
//! the experiment service run units in any process and merge
//! bit-identical output (`report::merge_csvs`).
//!
//! Orchestrators enumerate [`registry`] instead of hard-coding harness
//! functions; adding a workload is adding one descriptor. The CLI
//! (`crate::cli`) looks experiments up here by name.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::report::Table;
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
    /// Human-readable one-liner for `--list`.
    pub title: &'static str,
    /// Bundle membership.
    pub group: Group,
    /// CSV files this experiment writes (without `.csv`).
    pub csvs: &'static [&'static str],
    /// Unit count for a mode.
    pub units: fn(Mode) -> usize,
    /// Run the units selected by the context.
    pub run: fn(&Ctx),
}

/// Execution context handed to every experiment: the run mode, the trial
/// runner, CSV routing, and the flag-gated τ_w jitter amplitude. A
/// context runs either every unit of its experiment or the one unit a
/// service lease names; experiments ask [`Ctx::units`] which, and route
/// every CSV through [`Ctx::write_csv`] so a leased unit emits a
/// mergeable unit-tagged partial.
pub struct Ctx {
    mode: Mode,
    runner: Runner,
    out_dir: Option<PathBuf>,
    tau_jitter: u64,
    /// The local unit a service lease names (`None` = every unit).
    unit: Option<usize>,
}

impl Ctx {
    /// A context that runs every unit and writes to the default output
    /// directory — what the in-process harness and the tests use.
    pub fn solo(mode: Mode, runner: Runner) -> Ctx {
        Ctx { mode, runner, out_dir: None, tau_jitter: 0, unit: None }
    }

    /// Replace the CSV output directory (`None` = `target/repro/`).
    pub fn with_out_dir(mut self, dir: Option<PathBuf>) -> Ctx {
        self.out_dir = dir;
        self
    }

    /// Set the τ_w jitter amplitude (see `smack::probe::jittered_wait`).
    pub fn with_tau_jitter(mut self, jitter: u64) -> Ctx {
        self.tau_jitter = jitter;
        self
    }

    /// Restrict this context to the one local unit a service lease names;
    /// its CSVs become unit-tagged partials for the coordinator's merge.
    /// The caller checks `unit` against the experiment's unit count.
    pub fn with_unit(mut self, unit: usize) -> Ctx {
        self.unit = Some(unit);
        self
    }

    /// The run mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The trial runner every experiment must fan out through (threads
    /// apply uniformly — experiments never consult the environment
    /// themselves).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The τ_w jitter amplitude for fig5/table2-style trace collection
    /// (0 = the historical fixed exposure window).
    pub fn tau_jitter(&self) -> u64 {
        self.tau_jitter
    }

    /// The unit indices in `0..total` this context runs, ascending: the
    /// leased unit, or every unit.
    pub fn units(&self, total: usize) -> Vec<usize> {
        self.unit.map_or_else(|| (0..total).collect(), |unit| vec![unit])
    }

    /// Write a table as this experiment's CSV `name`, unit-tagged when
    /// the context holds a lease (reporting, but not aborting on, I/O
    /// errors).
    pub fn write_csv(&self, table: &Table, name: &str) {
        let tagged = self.unit.is_some();
        match table.try_write_csv_in(self.out_dir.as_deref(), name, tagged) {
            Ok(path) => println!("[csv] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {name}.csv: {e}"),
        }
    }
}

fn one_unit(_: Mode) -> usize {
    1
}

fn fig5_units(_: Mode) -> usize {
    experiments::FIG5_KINDS.len()
}

fn table2_units(_: Mode) -> usize {
    smack_crypto::SrpGroup::PAPER_SIZES.len()
}

fn table4_units(_: Mode) -> usize {
    experiments::TABLE4_CELLS
}

fn analyze_units(_: Mode) -> usize {
    experiments::ANALYZE_UNITS
}

/// Every experiment, in the order `all` runs the paper artifacts.
pub fn registry() -> &'static [Experiment] {
    static REGISTRY: &[Experiment] = &[
        Experiment {
            name: "fig1",
            title: "Figure 1 — probe timing per cache state (+ Mastik row)",
            group: Group::Paper,
            csvs: &["fig1"],
            units: one_unit,
            run: |ctx| {
                experiments::fig1(ctx);
            },
        },
        Experiment {
            name: "fig2",
            title: "Figure 2 — SMC counter reverse engineering (Intel + AMD)",
            group: Group::Paper,
            csvs: &["fig2_intel", "fig2_amd"],
            units: one_unit,
            run: |ctx| {
                experiments::fig2(ctx);
            },
        },
        Experiment {
            name: "table1",
            title: "Table 1 — covert-channel bandwidth & error rates",
            group: Group::Paper,
            csvs: &["table1"],
            units: one_unit,
            run: |ctx| {
                experiments::table1(ctx);
            },
        },
        Experiment {
            name: "fig3",
            title: "Figure 3 — receiver timing trace with assigned bits",
            group: Group::Paper,
            csvs: &["fig3"],
            units: one_unit,
            run: |ctx| {
                experiments::fig3(ctx);
            },
        },
        Experiment {
            name: "fig4",
            title: "Figure 4 — multiplication-set activity",
            group: Group::Paper,
            csvs: &["fig4"],
            units: one_unit,
            run: |ctx| {
                experiments::fig4(ctx);
            },
        },
        Experiment {
            name: "fig5",
            title: "Figure 5 — traces needed for 70% RSA key recovery",
            group: Group::Paper,
            csvs: &["fig5"],
            units: fig5_units,
            run: |ctx| {
                experiments::fig5(ctx);
            },
        },
        Experiment {
            name: "table2",
            title: "Table 2 — SRP leakage: Prime+iStore vs Mastik",
            group: Group::Paper,
            csvs: &["table2"],
            units: table2_units,
            run: |ctx| {
                experiments::table2(ctx);
            },
        },
        Experiment {
            name: "fig6",
            title: "Figure 6 — SRP single-trace pattern timeline",
            group: Group::Paper,
            csvs: &["fig6"],
            units: one_unit,
            run: |ctx| {
                experiments::fig6(ctx);
            },
        },
        Experiment {
            name: "table3",
            title: "Table 3 — ISpectre applicability matrix",
            group: Group::Paper,
            csvs: &["table3"],
            units: one_unit,
            run: |ctx| {
                experiments::table3(ctx);
            },
        },
        Experiment {
            name: "table4",
            title: "Table 4 — ISpectre leakage rates (B/s)",
            group: Group::Paper,
            csvs: &["table4"],
            units: table4_units,
            run: |ctx| {
                experiments::table4(ctx);
            },
        },
        Experiment {
            name: "table5",
            title: "§6.1 — detection accuracy / F-score / FPR",
            group: Group::Paper,
            csvs: &["table5"],
            units: one_unit,
            run: |ctx| {
                experiments::table5(ctx);
            },
        },
        Experiment {
            name: "fingerprint",
            title: "Case Study II steps 1–2 — library fingerprinting",
            group: Group::CaseStudy,
            csvs: &["fingerprint"],
            units: one_unit,
            run: experiments::fingerprint,
        },
        Experiment {
            name: "analyze",
            title: "Static leakage analyzer — taint verdicts vs measured recovery",
            group: Group::CaseStudy,
            csvs: &["analyze"],
            units: analyze_units,
            run: |ctx| {
                experiments::analyze(ctx);
            },
        },
        Experiment {
            name: "ablation_smc_penalty",
            title: "Ablation — SMC latency surcharge vs channel error rate",
            group: Group::Ablation,
            csvs: &["ablation_smc_penalty"],
            units: one_unit,
            run: ablations::smc_penalty_sweep,
        },
        Experiment {
            name: "ablation_frontend",
            title: "Ablation — front-end L2-latency hiding vs the Mastik margin",
            group: Group::Ablation,
            csvs: &["ablation_frontend"],
            units: one_unit,
            run: ablations::frontend_ablation,
        },
        Experiment {
            name: "ablation_timer",
            title: "Ablation — rdtsc resolution vs channel error rate",
            group: Group::Ablation,
            csvs: &["ablation_timer"],
            units: one_unit,
            run: ablations::timer_resolution_sweep,
        },
        Experiment {
            name: "ablation_tau_w",
            title: "Ablation — τ_w (prime→probe wait) vs RSA recovery",
            group: Group::Ablation,
            csvs: &["ablation_tau_w"],
            units: one_unit,
            run: ablations::tau_w_sweep,
        },
        Experiment {
            name: "ablation_tau_jitter",
            title: "Ablation — fixed vs jittered exposure window (RSA voting)",
            group: Group::Ablation,
            csvs: &["ablation_tau_jitter"],
            units: one_unit,
            run: ablations::tau_jitter_sweep,
        },
        Experiment {
            name: "ablation_countermeasure",
            title: "§6.2 — constant-time exponentiation defeats the attack",
            group: Group::Ablation,
            csvs: &["ablation_countermeasure"],
            units: one_unit,
            run: ablations::countermeasure,
        },
        Experiment {
            name: "ablation_slowdown",
            title: "Ablation — victim slowdown under SMC machine-clear storms",
            group: Group::Ablation,
            csvs: &["ablation_slowdown"],
            units: one_unit,
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

/// Shared settings for running a selection of experiments in-process.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Quick or paper-scale sample counts.
    pub mode: Mode,
    /// The (thread-configured) trial runner.
    pub runner: Runner,
    /// CSV output directory (`None` = `target/repro/`).
    pub out_dir: Option<PathBuf>,
    /// Flag-gated τ_w jitter amplitude.
    pub tau_jitter: u64,
}

impl RunSpec {
    /// The context for one experiment: every unit, plain CSVs.
    pub fn ctx(&self) -> Ctx {
        Ctx::solo(self.mode, self.runner)
            .with_out_dir(self.out_dir.clone())
            .with_tau_jitter(self.tau_jitter)
    }
}

/// Run a selection of experiments in order under one spec. Returns
/// per-experiment wall times.
pub fn run_selection(selection: &[&Experiment], spec: &RunSpec) -> Vec<(&'static str, Duration)> {
    selection
        .iter()
        .map(|exp| {
            let start = Instant::now();
            (exp.run)(&spec.ctx());
            (exp.name, start.elapsed())
        })
        .collect()
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

    #[test]
    fn unit_counts_are_positive_and_mode_stable() {
        for exp in registry() {
            assert!((exp.units)(Mode::Quick) > 0, "{}", exp.name);
            assert_eq!((exp.units)(Mode::Quick), (exp.units)(Mode::Full), "{}", exp.name);
        }
    }
}
