//! The per-table/per-figure experiment implementations.
//!
//! Each function measures one paper artifact and returns a [`Report`]:
//! the paper-comparable tables, named by their CSV files, and a closing
//! note. A failed trial is an error naming the trial. The registry
//! prints, writes and fails; no experiment does.
//!
//! Every experiment receives a [`Ctx`] from the registry: the run mode
//! and the one [`Runner`] threaded down from the CLI
//! (so `--threads` applies uniformly — no harness consults the
//! environment on its own). Trials fan out
//! through
//! [`Runner::run_scenarios`](crate::runner::Runner::run_scenarios), so
//! each trial closure receives a pooled [`Session`]:
//! machine construction is amortized across trials and a probe threshold
//! is calibrated at most once per
//! `(profile, probe class, cold placement, noise)` for the whole process.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::characterize::{figure1, figure1_mastik_row, figure2};
use smack::fingerprint::{library_id_experiment, mul_set_detection_accuracy, SweepConfig};
use smack::ispectre::{applicability_in, leak_secret_in, Applicability, ISpectreConfig};
use smack::rsa::{self, RsaAttackConfig};
use smack::session::{Scenario, Session, Sessions};
use smack::srp::{self, SrpAttackConfig};
use smack_analysis::{AnalysisReport, Verdict};
use smack_crypto::Bignum;
use smack_mastik::MastikMonitor;
use smack_uarch::{Machine, MicroArch, NoiseConfig, Placement, ProbeKind, StepError, ThreadId};
use smack_victims::corpus::{self, corpus};
use smack_victims::modexp::{ModexpAlgorithm, ModexpVictimBuilder};
use smack_victims::{BenignWorkload, SpectreVictim};

use crate::registry::{Context, Ctx, Report};
use crate::report::{f, s, Table};
use crate::runner::Runner;
use crate::Mode;

/// The probe classes Figure 5 sweeps — one trial each.
pub const FIG5_KINDS: [ProbeKind; 4] =
    [ProbeKind::Flush, ProbeKind::Store, ProbeKind::Lock, ProbeKind::Clwb];

/// Figure 1: probe latency per cache state on Cascade Lake, plus the
/// Mastik comparison row.
pub fn fig1(ctx: &Ctx) -> Result<Report, String> {
    let samples = ctx.mode.pick(100, 10_000);
    let results =
        ctx.runner.run_scenarios(Scenario::new(MicroArch::CascadeLake), 2, |session, i| {
            let m = session.machine();
            if i == 0 {
                figure1(m, ThreadId::T0, samples).context("probe classes")
            } else {
                figure1_mastik_row(m, ThreadId::T0, samples).context("mastik row")
            }
        });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (cells, mastik) = (&results[0], &results[1]);

    let mut t = Table::new(&["probe", "L1i", "L1d", "L2", "LLC", "DRAM"]);
    let mean = |cells: &[smack::characterize::Figure1Cell], k: ProbeKind, st: Placement| -> f64 {
        cells
            .iter()
            .find(|c| c.kind == k && c.state == st)
            .map(|c| c.stats.mean)
            .unwrap_or(f64::NAN)
    };
    for kind in ProbeKind::ALL {
        if !cells.iter().any(|c| c.kind == kind) {
            continue;
        }
        t.row(vec![
            s(kind),
            f(mean(cells, kind, Placement::L1i), 0),
            f(mean(cells, kind, Placement::L1d), 0),
            f(mean(cells, kind, Placement::L2), 0),
            f(mean(cells, kind, Placement::Llc), 0),
            f(mean(cells, kind, Placement::DramOnly), 0),
        ]);
    }
    t.row(vec![
        "mastik (execute)".to_owned(),
        f(mean(mastik, ProbeKind::Execute, Placement::L1i), 0),
        f(mean(mastik, ProbeKind::Execute, Placement::L1d), 0),
        f(mean(mastik, ProbeKind::Execute, Placement::L2), 0),
        f(mean(mastik, ProbeKind::Execute, Placement::Llc), 0),
        f(mean(mastik, ProbeKind::Execute, Placement::DramOnly), 0),
    ]);
    let note = "paper shape: clflush/store/lock/prefetch/clwb spike on L1i-resident lines \
                (SMC machine clear); Mastik's execute probe sees a 1-2 cycle L1i/L2 gap.";
    Ok(Report::new("fig1", t, note))
}

/// Figure 2: counter deltas per conflicting probe, Intel + AMD.
pub fn fig2(ctx: &Ctx) -> Result<Report, String> {
    let reps = ctx.mode.pick(200, 10_000);
    let arches = [(MicroArch::CascadeLake, "fig2_intel"), (MicroArch::AmdRyzen5, "fig2_amd")];
    let per_arch = ctx.runner.run_scenarios(
        |i: usize| Scenario::new(arches[i].0),
        arches.len(),
        |session, i| figure2(session.machine(), ThreadId::T0, reps).context(arches[i].0),
    );
    let mut tables = Vec::new();
    for ((_, name), profiles) in arches.iter().zip(per_arch) {
        let events = smack::characterize::FIGURE2_EVENTS;
        let mut header: Vec<&str> = vec!["probe"];
        let names: Vec<String> = events.iter().map(|e| e.name().to_owned()).collect();
        header.extend(names.iter().map(|n| n.as_str()));
        let mut t = Table::new(&header);
        for p in &profiles? {
            let mut row = vec![s(p.kind)];
            for (_, v) in &p.deltas {
                row.push(f(*v, 1));
            }
            t.row(row);
        }
        tables.push((*name, t));
    }
    Ok(Report {
        tables,
        note: "paper shape: one MACHINE_CLEARS.COUNT per conflict; MACHINE_CLEARS.SMC \
               double-counts clflushopt/clwb; store serializes ~200 cycles in the \
               scoreboard; AMD shows ~500 back-pressure stall cycles and refills via L2."
            .to_owned(),
    })
}

/// Table 1: the twelve covert channels on Cascade Lake (plus the paper's
/// AMD Prime+iLock note). A channel that fails to run is N/A.
pub fn table1(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(300, 4_000);
    let payload = random_payload(bits, 0x7ab1e1);
    let specs = ChannelSpec::table1();
    // One trial per channel spec, plus the paper's AMD note as a final
    // trial: Prime+iLock on Ryzen 5 is slower and noisier. Channels
    // transmit under the noisy model, so the scenarios carry it (the
    // machine seed and RNG stream are unchanged: the old path flipped a
    // fresh quiet machine to noisy before its first random draw).
    let spec_for = |i: usize| -> Scenario {
        let arch = if i < specs.len() { MicroArch::CascadeLake } else { MicroArch::AmdRyzen5 };
        Scenario::new(arch).with_noise(NoiseConfig::noisy())
    };
    let outcomes = ctx.runner.run_scenarios(spec_for, specs.len() + 1, |session, i| {
        if i < specs.len() {
            run_channel_in(session, &specs[i], &payload, false)
        } else {
            run_channel_in(session, &ChannelSpec::prime_probe(ProbeKind::Lock), &payload, false)
        }
    });
    let mut t = Table::new(&["covert channel", "app.", "bit rate (kbit/s)", "error rate (%)"]);
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        match outcome {
            Ok(r) => {
                t.row(vec![r.name.clone(), s("yes"), f(r.kbit_per_s, 1), f(r.error_rate_pct, 1)])
            }
            Err(_) => t.row(vec![spec.name(), s("no"), s("N/A"), s("N/A")]),
        };
    }
    if let Some(Ok(r)) = outcomes.last() {
        t.row(vec![
            format!("{} (AMD Ryzen 5)", r.name),
            s("yes"),
            f(r.kbit_per_s, 1),
            f(r.error_rate_pct, 1),
        ]);
    }
    let note = "paper shape: Flush+iReload channels are several times faster than \
                Prime+iProbe; Flush+iLock and Flush+iStore are N/A (read-only shared \
                page); error rates stay in the low percent.";
    Ok(Report::new("table1", t, note))
}

/// Figure 3: receiver trace with assigned bits (Tiger Lake, Prime+iStore).
pub fn fig3(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(24, 48);
    // A recognizable pattern, as in the paper's plot.
    let payload: Vec<bool> = (0..bits).map(|i| matches!(i % 4, 0 | 2 | 3)).collect();
    let mut session = Sessions::global()
        .session(&Scenario::new(MicroArch::TigerLake).with_noise(NoiseConfig::noisy()));
    let r =
        run_channel_in(&mut session, &ChannelSpec::prime_probe(ProbeKind::Store), &payload, true)
            .context("channel")?;
    let mut t = Table::new(&["sample", "clock", "min way timing", "activity", "slot", "sent bit"]);
    for (i, p) in r.trace.iter().enumerate() {
        t.row(vec![
            s(i),
            s(p.at),
            s(p.timing),
            s(if p.activity { "*" } else { "" }),
            s(p.slot),
            s(payload[p.slot] as u8),
        ]);
    }
    let note = format!(
        "decoded {} bits with {} errors ({:.1}%); low-timing samples mark the \
         sender's evictions, exactly like the paper's low peaks.",
        r.bits, r.errors, r.error_rate_pct
    );
    Ok(Report::new("fig3", t, note))
}

/// Figure 4: per-sample minimum probe timing while an RSA victim runs —
/// low dips are multiplication activity.
pub fn fig4(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(96, 256);
    let mut rng = SmallRng::seed_from_u64(0xf19);
    let exp = Bignum::random_bits(&mut rng, bits);
    let cfg = RsaAttackConfig::new(ProbeKind::Store);
    let victim = rsa::build_victim(&cfg);
    let mut session = Sessions::global()
        .session(&Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(0xf4));
    let trace = rsa::collect_trace_in(&mut session, &victim, &exp, &cfg).context("trace")?;
    let mut t = Table::new(&["sample", "min timing", "activity"]);
    for (i, sample) in trace.samples.iter().enumerate().take(400) {
        t.row(vec![s(i), s(sample.min_timing), s(if sample.active { "*" } else { "" })]);
    }
    let events = rsa::events_from_samples(&trace.samples);
    let note = format!(
        "{} samples, {} activity events for {} true multiplications — low \
         timings are evictions by the victim's mul_n calls (paper: \"low timing \
         values indicate multiplication activity\").",
        trace.samples.len(),
        events.len(),
        (0..exp.bit_len()).filter(|i| exp.bit(*i)).count(),
    );
    Ok(Report::new("fig4", t, note))
}

/// One Figure 5 row.
struct Fig5Row {
    /// Probe class.
    kind: ProbeKind,
    /// Single-trace recovery rate (aligned scoring).
    single_trace: f64,
    /// Single-trace recovery rate (positional scoring).
    positional_single: f64,
    /// Traces needed for 70% (None = not reached within the budget).
    traces_for_70: Option<usize>,
    /// Best recovery achieved.
    best: f64,
}

/// Figure 5: traces needed for 70% key recovery per probe class.
pub fn fig5(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(160, 512);
    let max_traces = ctx.mode.pick(12, 25);
    let mut rng = SmallRng::seed_from_u64(0xf5);
    let exp = Bignum::random_bits(&mut rng, bits);
    // One trial per probe class; each trial's trace sequence keeps its
    // sequential early-exit semantics (stop at the first 70% vote). The
    // trial renews its one pooled session per trace instead of building a
    // machine per trace.
    // All four probe classes attack under the default realistic noise.
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(NoiseConfig::realistic());
    let rows = ctx.runner.run_scenarios(scenario, FIG5_KINDS.len(), |session, i| {
        let kind = FIG5_KINDS[i];
        let cfg = RsaAttackConfig::new(kind);
        let victim = rsa::build_victim(&cfg);
        let mut decodes: Vec<Vec<bool>> = Vec::new();
        let mut aligned_rates = Vec::new();
        let mut positional_single = 0.0;
        let mut used = None;
        for trace_idx in 0..max_traces {
            session.renew(2_000 + trace_idx as u64);
            let trace = rsa::collect_trace_in(session, &victim, &exp, &cfg)
                .context(format_args!("{kind}, trace {}", trace_idx + 1))?;
            let decoded = rsa::decode_trace(&trace, exp.bit_len());
            if trace_idx == 0 {
                positional_single = rsa::score_bits(&decoded, &exp);
            }
            decodes.push(decoded);
            let combined = rsa::majority_vote(&decodes, exp.bit_len());
            let rate = rsa::score_bits_aligned(&combined, &exp);
            aligned_rates.push(rate);
            if rate >= 0.70 && used.is_none() {
                used = Some(trace_idx + 1);
                break;
            }
        }
        let single = aligned_rates.first().copied().unwrap_or(0.0);
        let best = aligned_rates.iter().cloned().fold(0.0f64, f64::max);
        Ok(Fig5Row { kind, single_trace: single, positional_single, traces_for_70: used, best })
    });
    let mut t = Table::new(&[
        "probe",
        "single-trace (aligned)",
        "single-trace (positional)",
        "traces for 70% (aligned)",
        "best (aligned)",
    ]);
    for row in rows.into_iter().collect::<Result<Vec<Fig5Row>, String>>()? {
        t.row(vec![
            s(row.kind),
            f(row.single_trace, 3),
            f(row.positional_single, 3),
            row.traces_for_70.map_or_else(|| format!(">{max_traces}"), |u| u.to_string()),
            f(row.best, 3),
        ]);
    }
    let note = "paper shape: a single trace leaks ~63% of the key; Flush needs the \
                fewest traces (10), Store ~13, Lock ~20, Clwb the most.";
    Ok(Report::new("fig5", t, note))
}

/// One Table 2 cell result.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Group size in bits.
    pub group_bits: usize,
    /// Mean Prime+iStore leakage.
    pub smack: f64,
    /// Mean Mastik leakage.
    pub mastik: f64,
}

/// The full Table 2 measurement grid — every group, every key — fanned
/// out over `runner` and averaged per group. Every (group, key) cell is one
/// independent trial whose seeds derive from the key index alone. Exposed
/// so tests can check parallel/sequential result equality.
///
/// # Errors
///
/// Names the first failing cell, e.g. `group 4096, key 2: <error>`.
pub fn table2_rows(mode: Mode, runner: &Runner) -> Result<Vec<Table2Row>, String> {
    let keys = mode.pick(3, 100);
    let exp_bits = mode.pick(160, 0); // 0 = full group size
    let sizes = smack_crypto::SrpGroup::PAPER_SIZES;
    // Both monitors run under the noisy model with the key index as the
    // machine seed; the trial renews its session between the SMaCk attack
    // and the Mastik baseline (same seed → same machine state either way).
    let spec_for = |t: usize| -> Scenario {
        Scenario::new(MicroArch::TigerLake)
            .with_noise(NoiseConfig::noisy())
            .with_seed((t % keys) as u64)
    };
    let cells = runner.run_scenarios(spec_for, sizes.len() * keys, |session, t| {
        let (group, key) = (sizes[t / keys], t % keys);
        let mut rng = SmallRng::seed_from_u64(0x7b + key as u64);
        let nbits = if exp_bits == 0 { group } else { exp_bits };
        let b = Bignum::random_bits(&mut rng, nbits);
        let cfg = SrpAttackConfig { noise: NoiseConfig::noisy(), ..SrpAttackConfig::new(group) };
        let cell = format!("group {group}, key {key}");
        let smack = srp::single_trace_attack_in(session, &b, &cfg).context(&cell)?;
        session.renew(key as u64);
        let mastik =
            mastik_srp_attack_on(session.machine(), group, &b).context(cell + ", Mastik")?;
        Ok((smack.leakage, mastik.leakage))
    });
    let cells = cells.into_iter().collect::<Result<Vec<(f64, f64)>, String>>()?;
    Ok(sizes
        .iter()
        .zip(cells.chunks(keys))
        .map(|(group, chunk)| Table2Row {
            group_bits: *group,
            smack: chunk.iter().map(|c| c.0).sum::<f64>() / keys as f64,
            mastik: chunk.iter().map(|c| c.1).sum::<f64>() / keys as f64,
        })
        .collect())
}

/// Table 2: SRP single-trace leakage, Prime+iStore vs Mastik.
pub fn table2(ctx: &Ctx) -> Result<Report, String> {
    let mut t = Table::new(&["group size", "Prime+iStore", "Mastik (PnP)"]);
    for row in table2_rows(ctx.mode, &ctx.runner)? {
        t.row(vec![
            s(row.group_bits),
            f(row.smack * 100.0, 0) + "%",
            f(row.mastik * 100.0, 0) + "%",
        ]);
    }
    let note = "paper shape: Prime+iStore leakage rises with group size (65->90%); \
                Mastik trails badly (22->48%) because its 1-2 cycle margin drowns in \
                noise.";
    Ok(Report::new("table2", t, note))
}

/// Collect the §6.1 dataset with every unit of
/// [`smack_detection::dataset_units`] run as its own trial, on a pooled
/// machine seeded with the unit's seed. Returns (benign, attack) windows.
fn collect_detection_dataset(
    runner: &Runner,
    arch: MicroArch,
    cfg: &smack_detection::DetectionConfig,
) -> Result<(Vec<smack_detection::CounterDelta>, Vec<smack_detection::CounterDelta>), String> {
    let units = smack_detection::dataset_units();
    let spec_for = |i: usize| Scenario::new(arch).with_noise(cfg.noise).with_seed(units[i].seed());
    let windows = runner.run_scenarios(spec_for, units.len(), |session, i| {
        smack_detection::collect_unit_on(session.machine(), units[i], cfg)
            .context(format_args!("{:?}", units[i]))
    });
    let mut benign = Vec::new();
    let mut attacks = Vec::new();
    for (unit, w) in units.iter().zip(windows) {
        let Some(w) = w? else { continue };
        if unit.is_benign() {
            benign.extend(w);
        } else {
            attacks.extend(w);
        }
    }
    Ok((benign, attacks))
}

/// table2's Mastik column: run the Mastik baseline against the SRP
/// victim on a machine in its cold start state, through the same
/// pipeline as the SMaCk attack.
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn mastik_srp_attack_on(
    machine: &mut Machine,
    group_bits: usize,
    b: &Bignum,
) -> Result<srp::SrpAttackOutcome, String> {
    srp::single_trace_attack_with(machine, b, group_bits, |m, victim| {
        let mut monitor = MastikMonitor::new(m, ThreadId::T0, 0x0a50_0000, victim.mul_set, 600)
            .map_err(|e| e.to_string())?;
        Ok(move |m: &mut Machine| monitor.sample(m).map_err(|e| e.to_string()))
    })
}

/// Figure 6: the SRP single-trace pattern timeline at group size 6144.
pub fn fig6(ctx: &Ctx) -> Result<Report, String> {
    let exp_bits = ctx.mode.pick(128, 6144);
    let mut rng = SmallRng::seed_from_u64(0xf6);
    let b = Bignum::random_bits(&mut rng, exp_bits);
    let cfg = SrpAttackConfig::new(6144);
    let mut session = Sessions::global()
        .session(&Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(0xf6));
    let out = srp::single_trace_attack_in(&mut session, &b, &cfg).context("attack")?;
    let events = srp::event_times(&out.samples);
    let measured = srp::measured_square_runs(&out.samples);
    let schedule = smack_crypto::modexp::sliding_window_schedule(&b);
    let truth = srp::truth_spans(&schedule);
    let pattern = |squares: u32| -> String {
        match squares {
            1 => "11".to_owned(),
            2 => "1X1 / 101".to_owned(),
            n => format!("1{}1 (+zeros)", "X".repeat((n as usize).saturating_sub(1).min(5))),
        }
    };
    let mut t =
        Table::new(&["mult #", "event clock", "measured squares", "pattern", "truth squares"]);
    for (i, at) in events.iter().enumerate().take(60) {
        let m = measured.get(i.wrapping_sub(1)).copied();
        let tr = truth.get(i.wrapping_sub(1)).map(|x| x.squares);
        t.row(vec![
            s(i),
            s(at),
            m.map_or_else(|| "-".into(), |v| v.to_string()),
            m.map_or_else(|| "-".into(), pattern),
            tr.map_or_else(|| "-".into(), |v| v.to_string()),
        ]);
    }
    let note = format!(
        "leakage {:.0}% of recoverable bits — the paper's seven patterns \
         ('0','1','11','1X1',...,'1XXXX1') appear as distinct square-run \
         lengths between multiply events.",
        out.leakage * 100.0
    );
    Ok(Report::new("fig6", t, note))
}

/// Table 3: the ISpectre applicability matrix across all ten parts. A
/// probe whose applicability check fails counts as no leak.
pub fn table3(ctx: &Ctx) -> Result<Report, String> {
    let mut header: Vec<&str> = vec!["probe"];
    let names: Vec<String> = MicroArch::ALL.iter().map(|a| a.name().to_owned()).collect();
    header.extend(names.iter().map(|n| n.as_str()));
    let mut t = Table::new(&header);
    // One trial per microarchitecture, each sweeping all probe classes on
    // one pooled session renewed (reset to the canonical seed) per class.
    let spec_for = |i: usize| -> Scenario {
        Scenario::new(MicroArch::ALL[i]).with_noise(NoiseConfig::realistic()).with_seed(0x7ab3)
    };
    let columns = ctx.runner.run_scenarios(spec_for, MicroArch::ALL.len(), |session, _| {
        ProbeKind::ALL
            .iter()
            .map(|kind| {
                session.renew(0x7ab3);
                applicability_in(session, *kind).unwrap_or(Applicability::NoLeak)
            })
            .collect::<Vec<Applicability>>()
    });
    for (ki, kind) in ProbeKind::ALL.iter().enumerate() {
        let mut row = vec![s(kind)];
        for col in &columns {
            row.push(col[ki].symbol().to_owned());
        }
        t.row(row);
    }
    let note = "legend: ● SMC-powered leak, ◐ leaks without SMC, # no leak, × \
                unsupported. Paper shape: store/lock work everywhere; execute never \
                works; EPYC's flushes leak without machine clears; clwb only on the \
                newest parts.";
    Ok(Report::new("table3", t, note))
}

/// Table 4: ISpectre leakage rates on Cascade Lake and Ryzen 5. A cell
/// that fails to run or recovers under half the secret is N/A.
pub fn table4(ctx: &Ctx) -> Result<Report, String> {
    let kinds = [
        ProbeKind::Flush,
        ProbeKind::FlushOpt,
        ProbeKind::Store,
        ProbeKind::Lock,
        ProbeKind::Prefetch,
        ProbeKind::Clwb,
    ];
    let arches = [MicroArch::CascadeLake, MicroArch::AmdRyzen5];
    let secret_len = ctx.mode.pick(8, 64);
    let secret: Vec<u8> =
        (0..secret_len).map(|i| (i as u8).wrapping_mul(73).wrapping_add(19)).collect();
    // One trial per (processor, probe) cell.
    let spec_for = |cell: usize| -> Scenario {
        Scenario::new(arches[cell / kinds.len()])
            .with_noise(NoiseConfig::realistic())
            .with_seed(0x7ab4)
    };
    let cells = ctx.runner.run_scenarios(spec_for, arches.len() * kinds.len(), |session, cell| {
        let (arch, kind) = (arches[cell / kinds.len()], kinds[cell % kinds.len()]);
        let cfg = ISpectreConfig::new(kind);
        (arch, kind, leak_secret_in(session, &secret, &cfg))
    });
    let mut t = Table::new(&["processor", "probe", "B/s", "success (%)"]);
    for (arch, kind, outcome) in cells {
        match outcome {
            Ok(r) if r.success_rate >= 0.5 => {
                t.row(vec![s(arch), s(kind), f(r.bytes_per_s, 0), f(r.success_rate * 100.0, 1)])
            }
            _ => t.row(vec![s(arch), s(kind), s("N/A"), s("N/A")]),
        };
    }
    let note = "paper shape: thousands of bytes per second with high success; \
                prefetch/clwb are unavailable or ineffective on AMD Ryzen 5.";
    Ok(Report::new("table4", t, note))
}

/// §6.1 detection: accuracy/F1/FPR per counter feature set.
pub fn table5(ctx: &Ctx) -> Result<Report, String> {
    let cfg = smack_detection::DetectionConfig {
        window_cycles: ctx.mode.pick(80_000, 200_000) as u64,
        windows_per_run: ctx.mode.pick(6, 14),
        noise: NoiseConfig::realistic(),
    };
    let (benign, attacks) = collect_detection_dataset(&ctx.runner, MicroArch::CascadeLake, &cfg)?;
    let mut t = Table::new(&["feature set", "accuracy", "F1", "FPR"]);
    for fs in smack_detection::FeatureSet::ALL {
        let r = smack_detection::evaluate(fs, &benign, &attacks, 0x7ab5);
        t.row(vec![s(fs), f(r.accuracy, 4), f(r.f1, 4), f(r.fpr, 4)]);
    }
    let note = "paper shape: machine_clears.smc detects the attacks almost perfectly \
                (F1 ~0.99, FPR <1%, residual false positives from the self-modifying \
                amg workload); branch-misprediction and LLC-miss counters from prior \
                work are much weaker.";
    Ok(Report::new("table5", t, note))
}

/// Case Study II steps 1–2 (paper §5.2): identify the victim's crypto
/// library version from L1i-set activity fingerprints, and locate the
/// multiplication set.
pub fn fingerprint(ctx: &Ctx) -> Result<Report, String> {
    let full = corpus();
    let versions: Vec<_> = match ctx.mode {
        Mode::Quick => full.iter().cloned().step_by(4).collect(), // 9 versions
        Mode::Full => full.clone(),
    };
    let cfg = SweepConfig::default();
    let report = library_id_experiment(
        MicroArch::TigerLake,
        &versions,
        ctx.mode.pick(5, 8),
        ctx.mode.pick(1, 2),
        &cfg,
    )
    .context("library identification")?;
    let mut t = Table::new(&["metric", "measured", "paper"]);
    t.row(vec![s("versions classified"), s(report.versions), s("34 (20 OpenSSL + 14 Libgcrypt)")]);
    t.row(vec![s("offline cross-validation accuracy"), f(report.cv_accuracy, 3), s("1.00")]);
    t.row(vec![s("online identification accuracy"), f(report.online_accuracy, 3), s("0.97")]);
    let acc = mul_set_detection_accuracy(MicroArch::TigerLake, ctx.mode.pick(8, 24), &cfg)
        .context("multiplication-set detection")?;
    t.row(vec![s("mul-set detection accuracy"), f(acc, 3), s("0.96")]);
    Ok(Report::new("fingerprint", t, ""))
}

/// The corpus versions the `analyze` experiment spot-checks (indices into
/// [`corpus()`], one per family region).
const ANALYZE_CORPUS_PICKS: [usize; 4] = [0, 10, 20, 30];

/// Victim count of the `analyze` experiment: the four attack victims,
/// every benign workload, and four corpus versions.
const ANALYZE_VICTIMS: usize = 4 + BenignWorkload::ALL.len() + ANALYZE_CORPUS_PICKS.len();

/// One `analyze` row: a victim's static verdict joined with its dynamic
/// measurement.
struct AnalyzeRow {
    /// Victim name.
    victim: String,
    /// The static analyzer's verdict.
    verdict: Verdict,
    /// Number of statically leaky cache lines.
    leaky_lines: usize,
    /// Number of SMC patch audit violations.
    audit_violations: usize,
    /// Whether the observed victim-only fetch-line log was a subset of the
    /// static footprint (the soundness obligation, checked in production).
    sound: bool,
    /// What the dynamic column measures for this victim.
    metric: &'static str,
    /// The measured value.
    value: f64,
    /// The value a secret-blind guesser would score.
    chance: f64,
    /// Whether the measurement shows a real leak (≫ chance).
    signal: bool,
}

impl AnalyzeRow {
    /// Static and dynamic agree: `Leaky` iff the measurement leaks.
    fn agrees(&self) -> bool {
        (self.verdict == Verdict::Leaky) == self.signal
    }
}

/// Whether every observed fetch line is covered by the (sorted) static
/// footprint.
fn footprint_covers(footprint: &[u64], observed: &[u64]) -> bool {
    observed.iter().all(|l| footprint.binary_search(l).is_ok())
}

/// Run the victim-only program currently staged on `m` from `start` to
/// halt with the fetch log on; returns the sorted deduplicated fetched
/// lines. `start` must already have staged program + data.
fn observed_lines(
    m: &mut Machine,
    start: impl FnOnce(&mut Machine) -> Result<(), StepError>,
) -> Result<Vec<u64>, String> {
    m.set_fetch_log(true);
    start(m).context("victim start")?;
    m.run_until_halt(ThreadId::T0, 50_000_000).context("victim run")?;
    let mut lines = m.take_fetch_log();
    lines.sort_unstable();
    lines.dedup();
    Ok(lines)
}

fn analyze_rsa_victim(
    session: &mut Session<'_>,
    mode: Mode,
    algorithm: ModexpAlgorithm,
    name: &str,
) -> Result<AnalyzeRow, String> {
    let bits = mode.pick(128, 512);
    let mut rng = SmallRng::seed_from_u64(0xa71);
    let exp = Bignum::random_bits(&mut rng, bits);
    let cfg =
        RsaAttackConfig { noise: NoiseConfig::quiet(), ..RsaAttackConfig::new(ProbeKind::Flush) };
    let mut b = ModexpVictimBuilder::new(algorithm);
    b.operand_bits(cfg.operand_bits);
    let victim = b.build();
    let report = smack_analysis::analyze(&victim.program, victim.entry, &victim.secret_spec());

    let m = session.machine();
    m.load_program(&victim.program);
    let observed = observed_lines(m, |m| {
        victim.start(m, ThreadId::T0, &exp);
        Ok(())
    })?;
    let sound = footprint_covers(&report.footprint, &observed);

    // The paper's recovery method (fig5): majority-vote a few traces and
    // score the aligned combination, stopping once it clears 70%.
    let mut decodes: Vec<Vec<bool>> = Vec::new();
    let mut value: f64 = 0.0;
    for trace_idx in 0..mode.pick(8, 12) {
        session.renew(0xa72 + trace_idx as u64);
        let trace = rsa::collect_trace_in(session, &victim, &exp, &cfg)
            .context(format_args!("trace {}", trace_idx + 1))?;
        decodes.push(rsa::decode_trace(&trace, exp.bit_len()));
        let combined = rsa::majority_vote(&decodes, exp.bit_len());
        value = value.max(rsa::score_bits_aligned(&combined, &exp));
        if value >= 0.70 {
            break;
        }
    }
    Ok(AnalyzeRow {
        victim: name.to_owned(),
        verdict: report.verdict,
        leaky_lines: report.leaky_lines.len(),
        audit_violations: report.audit.len(),
        sound,
        metric: "voted bit recovery (aligned)",
        value,
        chance: 0.5,
        signal: value >= 0.70,
    })
}

fn analyze_srp_victim(session: &mut Session<'_>, mode: Mode) -> Result<AnalyzeRow, String> {
    // Group 4096: the size where the single-trace attack is near-perfect
    // even with quick-mode exponents (table2's top row territory).
    let group_bits = 4096;
    let mut rng = SmallRng::seed_from_u64(0xa73);
    let b = Bignum::random_bits(&mut rng, mode.pick(160, 1024));
    let victim = srp::build_victim(group_bits, b.bit_len());
    let report = smack_analysis::analyze(&victim.program, victim.entry, &victim.secret_spec());

    let m = session.machine();
    m.load_program(&victim.program);
    let observed = observed_lines(m, |m| {
        victim.start(m, ThreadId::T0, &b);
        Ok(())
    })?;
    let sound = footprint_covers(&report.footprint, &observed);

    session.renew(0xa74);
    let cfg = SrpAttackConfig { noise: NoiseConfig::noisy(), ..SrpAttackConfig::new(group_bits) };
    let out = srp::single_trace_attack_in(session, &b, &cfg).context("attack")?;
    Ok(AnalyzeRow {
        victim: "srp-sliding-window".to_owned(),
        verdict: report.verdict,
        leaky_lines: report.leaky_lines.len(),
        audit_violations: report.audit.len(),
        sound,
        metric: "single-trace leakage",
        value: out.leakage,
        chance: 0.0,
        signal: out.leakage >= 0.5,
    })
}

fn analyze_spectre_victim(session: &mut Session<'_>, mode: Mode) -> Result<AnalyzeRow, String> {
    let victim = SpectreVictim::build();
    let report = smack_analysis::analyze(&victim.program, victim.entry, &victim.secret_spec());

    let m = session.machine();
    victim.stage(m, b"K");
    let entry = victim.entry;
    let observed = observed_lines(m, |m| {
        m.call(ThreadId::T0, entry, &[3])?;
        // `call` runs to completion on its own; park the thread so the
        // generic run-to-halt wait returns immediately.
        m.park(ThreadId::T0);
        Ok(())
    })?;
    let sound = footprint_covers(&report.footprint, &observed);

    session.renew(0xa75);
    let secret_len = mode.pick(4, 16);
    let secret: Vec<u8> =
        (0..secret_len).map(|i| (i as u8).wrapping_mul(73).wrapping_add(19)).collect();
    let r =
        leak_secret_in(session, &secret, &ISpectreConfig::new(ProbeKind::Flush)).context("leak")?;
    Ok(AnalyzeRow {
        victim: "ispectre-gadget".to_owned(),
        verdict: report.verdict,
        leaky_lines: report.leaky_lines.len(),
        audit_violations: report.audit.len(),
        sound,
        metric: "byte recovery success",
        value: r.success_rate,
        chance: 1.0 / 256.0,
        signal: r.success_rate >= 0.5,
    })
}

/// Differential dynamic check for victims without secrets: run the program
/// to halt at two different iteration counts and compare the fetched line
/// sets — a constant-footprint program touches the same lines either way.
fn analyze_differential_victim(
    session: &mut Session<'_>,
    name: String,
    report: &AnalysisReport,
    stage: impl Fn(&mut Machine),
    entry: u64,
) -> Result<AnalyzeRow, String> {
    let mut footprints = Vec::new();
    let mut sound = true;
    for iters in [2u64, 3] {
        session.renew(iters);
        let m = session.machine();
        stage(m);
        let observed = observed_lines(m, |m| {
            m.start_program(ThreadId::T0, entry, &[iters]);
            Ok(())
        })?;
        sound &= footprint_covers(&report.footprint, &observed);
        footprints.push(observed);
    }
    let distinct = if footprints[0] == footprints[1] { 1.0 } else { 2.0 };
    Ok(AnalyzeRow {
        victim: name,
        verdict: report.verdict,
        leaky_lines: report.leaky_lines.len(),
        audit_violations: report.audit.len(),
        sound,
        metric: "distinct footprints (2 inputs)",
        value: distinct,
        chance: 1.0,
        signal: distinct > 1.5,
    })
}

/// The static analyzer joined with dynamic ground truth: every victim is
/// analyzed (verdict, leaky lines, SMC patch audit) and then *measured* — the
/// attacks' recovery for the secret-processing victims, a differential
/// fetch-footprint comparison for the no-secret ones — and the `join`
/// column must read `ok` on every row. The observed fetch-line log is also
/// checked against the static footprint on every victim (the soundness
/// obligation the proptests lock, re-verified on the real victims).
pub fn analyze(ctx: &Ctx) -> Result<Report, String> {
    let mode = ctx.mode;
    let n_benign = BenignWorkload::ALL.len();
    let arch_for = |victim: usize| match victim {
        3 => MicroArch::CascadeLake,
        _ => MicroArch::TigerLake,
    };
    let spec_for = |victim: usize| -> Scenario {
        let scenario = Scenario::new(arch_for(victim)).with_seed(0xa70 + victim as u64);
        // The pooled session's noise must match each attack's noise
        // model: the SRP attack runs under table2's noisy model, the
        // ISpectre attack under its default realistic one.
        match victim {
            2 => scenario.with_noise(NoiseConfig::noisy()),
            3 => scenario.with_noise(NoiseConfig::realistic()),
            _ => scenario,
        }
    };
    let rows = ctx.runner.run_scenarios(spec_for, ANALYZE_VICTIMS, |session, victim| {
        match victim {
            0 => analyze_rsa_victim(session, mode, ModexpAlgorithm::BinaryLtr, "rsa-binary-ltr"),
            1 => analyze_rsa_victim(
                session,
                mode,
                ModexpAlgorithm::MontgomeryLadder,
                "rsa-montgomery-ladder",
            ),
            2 => analyze_srp_victim(session, mode),
            3 => analyze_spectre_victim(session, mode),
            u if u < 4 + n_benign => {
                let w = BenignWorkload::ALL[u - 4];
                let (code, data) = (0x0500_0000, 0x0600_0000);
                let prog = w.build(code, data);
                let report = smack_analysis::analyze(&prog, code, &w.secret_spec());
                analyze_differential_victim(
                    session,
                    format!("benign-{w}"),
                    &report,
                    |m| {
                        m.load_program(&prog);
                        w.stage_data(m, data);
                    },
                    code,
                )
            }
            u => {
                let version = &corpus()[ANALYZE_CORPUS_PICKS[u - 4 - n_benign]];
                let victim = corpus::build_victim(version, 0x0700_0000, 1);
                let report =
                    smack_analysis::analyze(&victim.program, victim.entry, &victim.secret_spec());
                analyze_differential_victim(
                    session,
                    format!("corpus-{}", version.label()),
                    &report,
                    |m| m.load_program(&victim.program),
                    victim.entry,
                )
            }
        }
        .context(format_args!("victim {victim}"))
    });

    let mut t = Table::new(&[
        "victim",
        "static verdict",
        "leaky lines",
        "audit",
        "soundness",
        "probes",
        "dynamic metric",
        "value",
        "chance",
        "join",
    ]);
    for (victim, row) in rows.into_iter().enumerate() {
        let row = row?;
        let probes = smack_analysis::observing_probes(&arch_for(victim).profile()).len();
        t.row(vec![
            row.victim.clone(),
            s(row.verdict.label()),
            s(row.leaky_lines),
            s(row.audit_violations),
            s(if row.sound { "ok" } else { "UNSOUND" }),
            s(probes),
            s(row.metric),
            f(row.value, 3),
            f(row.chance, 3),
            s(if row.agrees() { "ok" } else { "DISAGREE" }),
        ]);
    }
    let note = "expected shape: every secret-processing victim is statically leaky \
                and dynamically recovered; the constant-time ladder and every \
                no-secret workload is proven constant-footprint and measures at \
                chance. Any DISAGREE or UNSOUND cell is an analyzer bug.";
    Ok(Report::new("analyze", t, note))
}
