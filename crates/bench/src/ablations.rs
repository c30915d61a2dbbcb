//! Ablation studies of the simulator's modelling choices.
//!
//! These do not correspond to paper artifacts; they interrogate the model:
//! *why* does SMaCk win? Each ablation switches one mechanism off (or
//! sweeps one parameter) and re-measures an attack. Every ablation is a
//! registered [`crate::registry::Experiment`] returning a [`Report`], so
//! the shared CLI can run them individually or as the `ablations` bundle.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::rsa::{self, RsaAttackConfig};
use smack::session::Scenario;
use smack_crypto::Bignum;
use smack_uarch::{MicroArch, NoiseConfig, ProbeKind, UarchProfile};
use smack_victims::modexp::{ModexpAlgorithm, ModexpVictimBuilder};

use crate::registry::{Context, Ctx, Report};
use crate::report::{f, s, Table};

/// Sweep the machine-clear latency surcharge and measure the covert
/// channel's error rate: the SMC margin *is* the attack's robustness.
pub fn smc_penalty_sweep(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(200, 1_000);
    let payload = random_payload(bits, 0xab1);
    let mut t = Table::new(&["smc_extra (cycles)", "margin over L2 (cycles)", "error rate (%)"]);
    let surcharges = [4u32, 8, 16, 40, 120, 275];
    // Each surcharge value is its own profile fingerprint, so the pooled
    // machines and cached calibrations never cross between sweep points.
    let profile_for = |i: usize| -> UarchProfile {
        let mut profile: UarchProfile = MicroArch::CascadeLake.profile();
        let mut costs = profile.probe_costs.get(ProbeKind::Store);
        costs.smc_extra = surcharges[i];
        profile.probe_costs.set(ProbeKind::Store, costs);
        profile
    };
    let spec_for = |i: usize| Scenario::custom(profile_for(i)).with_noise(NoiseConfig::noisy());
    let results = ctx.runner.run_scenarios(spec_for, surcharges.len(), |session, i| {
        let costs = session.machine().profile().probe_costs.get(ProbeKind::Store);
        let margin = (costs.base + costs.smc_extra).saturating_sub(costs.base + costs.l2);
        let r =
            run_channel_in(session, &ChannelSpec::prime_probe(ProbeKind::Store), &payload, false)
                .context(format_args!("smc_extra {}", surcharges[i]))?;
        Ok::<_, String>((margin, r.error_rate_pct))
    });
    for (smc_extra, result) in surcharges.iter().zip(results) {
        let (margin, error_pct) = result?;
        t.row(vec![s(smc_extra), s(margin), f(error_pct, 1)]);
    }
    let note = "as the machine-clear surcharge shrinks toward the noise floor the \
                channel degrades into Mastik-grade unreliability.";
    Ok(Report::new("ablation_smc_penalty", t, note))
}

/// Switch off the front-end's L2-latency hiding: classic execute-probing
/// suddenly has a usable margin, explaining *why* Mastik struggles on real
/// front ends.
pub fn frontend_ablation(ctx: &Ctx) -> Result<Report, String> {
    let samples = ctx.mode.pick(50, 500);
    let mut t = Table::new(&["front-end", "execute L1i (cycles)", "execute L2 (cycles)", "margin"]);
    let variants = [("pipelined (real)", true), ("naive (exposed)", false)];
    let spec_for = |i: usize| -> Scenario {
        let mut profile = MicroArch::CascadeLake.profile();
        if !variants[i].1 {
            profile.hierarchy.ifetch_extra_l2 = profile.hierarchy.lat_l2;
        }
        Scenario::custom(profile)
    };
    let results = ctx.runner.run_scenarios(spec_for, variants.len(), |session, i| {
        let row = smack::characterize::figure1_mastik_row(
            session.machine(),
            smack_uarch::ThreadId::T0,
            samples,
        )
        .context(variants[i].0)?;
        let mean = |st: smack_uarch::Placement| -> f64 {
            row.iter().find(|c| c.state == st).map(|c| c.stats.mean).unwrap_or(f64::NAN)
        };
        Ok::<_, String>((mean(smack_uarch::Placement::L1i), mean(smack_uarch::Placement::L2)))
    });
    for ((label, _), result) in variants.iter().zip(results) {
        let (l1i, l2) = result?;
        t.row(vec![(*label).to_owned(), f(l1i, 1), f(l2, 1), f(l2 - l1i, 1)]);
    }
    Ok(Report::new("ablation_frontend", t, ""))
}

/// Sweep the timer granularity (Intel's 1 cycle to far coarser than AMD's
/// 21) and measure channel reliability — the paper's §7 discussion of AMD
/// timer resolution.
pub fn timer_resolution_sweep(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(200, 1_000);
    let payload = random_payload(bits, 0xab2);
    let mut t = Table::new(&["tsc resolution (cycles)", "error rate (%)"]);
    let resolutions = [1u32, 7, 21, 63, 127, 255];
    let spec_for = |i: usize| -> Scenario {
        let mut profile = MicroArch::CascadeLake.profile();
        profile.tsc_resolution = resolutions[i];
        Scenario::custom(profile).with_noise(NoiseConfig::noisy())
    };
    let reports = ctx.runner.run_scenarios(spec_for, resolutions.len(), |session, i| {
        run_channel_in(session, &ChannelSpec::prime_probe(ProbeKind::Store), &payload, false)
            .context(format_args!("tsc resolution {}", resolutions[i]))
    });
    for (res, report) in resolutions.iter().zip(reports) {
        t.row(vec![s(res), f(report?.error_rate_pct, 1)]);
    }
    let note = "SMaCk's multi-hundred-cycle margins survive even very coarse timers \
                — the paper's point about AMD's 21-cycle rdtsc hurting Mastik much \
                more than SMaCk.";
    Ok(Report::new("ablation_timer", t, note))
}

/// Sweep the prime→probe wait (the paper's §5.2 τ_w discussion) against
/// single-trace RSA recovery.
pub fn tau_w_sweep(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(128, 512);
    let mut rng = SmallRng::seed_from_u64(0xab3);
    let exp = Bignum::random_bits(&mut rng, bits);
    let mut t = Table::new(&["wait (cycles)", "single-trace recovery"]);
    let waits = [50u64, 100, 200, 400, 800, 1600];
    let scenario = Scenario::new(MicroArch::TigerLake).with_seed(7);
    let rates = ctx.runner.run_scenarios(scenario, waits.len(), |session, i| {
        let cfg = RsaAttackConfig {
            wait_cycles: waits[i],
            noise: NoiseConfig::quiet(),
            ..RsaAttackConfig::new(ProbeKind::Flush)
        };
        let victim = rsa::build_victim(&cfg);
        let trace = rsa::collect_trace_in(session, &victim, &exp, &cfg)
            .context(format_args!("wait {}", waits[i]))?;
        Ok::<_, String>(rsa::score_bits(&rsa::decode_trace(&trace, exp.bit_len()), &exp))
    });
    for (wait, rate) in waits.iter().zip(rates) {
        t.row(vec![s(wait), f(rate?, 3)]);
    }
    let note = "too little wait starves the victim of progress between samples; too \
                much loses multiplications — the paper settled on a 700-iteration \
                loop for the same trade-off.";
    Ok(Report::new("ablation_tau_w", t, note))
}

/// τ_w *jitter* ablation (the trace-diversification lever): the same
/// multi-trace RSA recovery with a fixed exposure window vs a per-trace
/// jittered one. With a fixed window the same decode misses recur in
/// every trace, so no vote can fix them; the sweep asks whether jitter
/// decorrelates the misses enough for majority voting to outvote them.
/// The note reports what the run measured.
pub fn tau_jitter_sweep(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(128, 512);
    let max_traces = ctx.mode.pick(8, 15);
    let mut rng = SmallRng::seed_from_u64(0xab7);
    let exp = Bignum::random_bits(&mut rng, bits);
    let jitters = [0u64, 16, 48, 96];
    let mut t = Table::new(&[
        "jitter (cycles)",
        "single-trace (aligned)",
        &format!("after {max_traces} traces"),
        "best (aligned)",
    ]);
    // The hardest quick-mode operating point: Prime+iLock, the weakest
    // probe class in Figure 5, where the fixed window leaves plenty of
    // systematic decode error to decorrelate.
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(NoiseConfig::realistic());
    let results = ctx.runner.run_scenarios(scenario, jitters.len(), |session, i| {
        let cfg =
            RsaAttackConfig { wait_jitter: jitters[i], ..RsaAttackConfig::new(ProbeKind::Lock) };
        let victim = rsa::build_victim(&cfg);
        let mut decodes: Vec<Vec<bool>> = Vec::new();
        let mut rates = Vec::new();
        for trace_idx in 0..max_traces {
            session.renew(3_000 + trace_idx as u64);
            let trace = rsa::collect_trace_in(session, &victim, &exp, &cfg)
                .context(format_args!("jitter {}, trace {}", jitters[i], trace_idx + 1))?;
            decodes.push(rsa::decode_trace(&trace, exp.bit_len()));
            let combined = rsa::majority_vote(&decodes, exp.bit_len());
            rates.push(rsa::score_bits_aligned(&combined, &exp));
        }
        let single = rates.first().copied().unwrap_or(0.0);
        let last = rates.last().copied().unwrap_or(0.0);
        let best = rates.iter().cloned().fold(0.0f64, f64::max);
        Ok::<_, String>((single, last, best))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    for (jitter, (single, last, best)) in jitters.iter().zip(&results) {
        t.row(vec![s(jitter), f(*single, 3), f(*last, 3), f(*best, 3)]);
    }
    // Row 0 is the fixed window; the note reads every number off the table.
    let fixed = results[0].0;
    let (best_jitter, best) =
        jitters
            .iter()
            .zip(&results)
            .fold((0, fixed), |b, (j, r)| if r.0 > b.1 { (*j, r.0) } else { b });
    let won: Vec<String> =
        jitters.iter().zip(&results).filter(|(_, r)| r.1 > r.0).map(|(j, _)| s(j)).collect();
    let voting = if won.is_empty() {
        "at no jitter".to_owned()
    } else {
        format!("at jitter {}", won.join(", "))
    };
    let note = format!(
        "fixed window: {fixed:.3} single-trace recovery; best single trace: {best:.3} at \
         jitter {best_jitter}; voting over {max_traces} traces beat one trace {voting}."
    );
    Ok(Report::new("ablation_tau_jitter", t, note))
}

/// §6.2 countermeasure: the identical attack against the leaky
/// square-and-multiply victim vs. the constant-time Montgomery ladder.
pub fn countermeasure(ctx: &Ctx) -> Result<Report, String> {
    let bits = ctx.mode.pick(128, 512);
    let mut rng = SmallRng::seed_from_u64(0xab4);
    let exp = Bignum::random_bits(&mut rng, bits);
    let cfg =
        RsaAttackConfig { noise: NoiseConfig::quiet(), ..RsaAttackConfig::new(ProbeKind::Flush) };
    let truth_ones =
        (0..exp.bit_len()).filter(|i| exp.bit(*i)).count() as f64 / exp.bit_len() as f64;
    let mut t = Table::new(&[
        "victim",
        "single-trace recovery",
        "decoded ones fraction",
        "true ones fraction",
    ]);
    let victims = [
        ("square-and-multiply (Libgcrypt 1.5.1)", ModexpAlgorithm::BinaryLtr),
        ("Montgomery ladder (constant-time)", ModexpAlgorithm::MontgomeryLadder),
    ];
    let scenario = Scenario::new(MicroArch::TigerLake).with_seed(11);
    let results = ctx.runner.run_scenarios(scenario, victims.len(), |session, i| {
        let mut b = ModexpVictimBuilder::new(victims[i].1);
        b.operand_bits(cfg.operand_bits);
        let victim = b.build();
        let trace = rsa::collect_trace_in(session, &victim, &exp, &cfg).context(victims[i].0)?;
        let decoded = rsa::decode_trace(&trace, exp.bit_len());
        let rate = rsa::score_bits(&decoded, &exp);
        let ones = decoded.iter().filter(|b| **b).count() as f64 / decoded.len().max(1) as f64;
        Ok::<_, String>((rate, ones))
    });
    for ((label, _), result) in victims.iter().zip(results) {
        let (rate, ones) = result?;
        t.row(vec![(*label).to_owned(), f(rate, 3), f(ones, 2), f(truth_ones, 2)]);
    }
    let note = "the leaky victim's decoded ones-fraction tracks the key; the ladder \
                multiplies on every bit, so the attacker decodes a structureless \
                all-ones stream — the schedule carries no key information.";
    Ok(Report::new("ablation_countermeasure", t, note))
}

/// How much does the SMC storm slow the sibling? (§4.2's 235-cycle clear
/// and §7's up-to-10x claims.)
pub fn sibling_slowdown(ctx: &Ctx) -> Result<Report, String> {
    use smack::oracle::EvictionSet;
    use smack::probe::Prober;
    use smack_uarch::asm::Assembler;
    use smack_uarch::isa::Reg;
    use smack_uarch::{PerfEvent, ThreadId};

    let mut t =
        Table::new(&["attacker behaviour", "victim instructions / 100k cycles", "slowdown"]);
    let behaviours = [("idle", false), ("Prime+iStore storm", true)];
    let scenario = Scenario::new(MicroArch::CascadeLake);
    let retired_counts = ctx.runner.run_scenarios(scenario, behaviours.len(), |session, i| {
        let (label, attack) = behaviours[i];
        let m: &mut smack_uarch::Machine = session.machine();
        let mut a = Assembler::new(0x60_0000);
        a.label("spin").add_imm(Reg::R2, 1).jmp("spin");
        let prog = a.assemble().context("victim assembly")?;
        m.load_program(&prog);
        let ev = EvictionSet::for_machine(m, 0x10_0000, 7);
        ev.install(m);
        let mut p = Prober::new(ThreadId::T0);
        m.start_program(ThreadId::T1, prog.entry(), &[]);
        let before = m.counters(ThreadId::T1).snapshot();
        let start = m.clock(ThreadId::T0);
        while m.clock(ThreadId::T0) - start < 100_000 {
            if attack {
                ev.prime(m, &mut p).context(label)?;
                ev.probe(m, &mut p, ProbeKind::Store).context(label)?;
            } else {
                m.advance(ThreadId::T0, 500).context(label)?;
            }
        }
        Ok::<_, String>(m.counters(ThreadId::T1).delta(&before, PerfEvent::InstRetired) as f64)
    });
    let retired_counts = retired_counts.into_iter().collect::<Result<Vec<_>, _>>()?;
    let baseline = retired_counts[0];
    for ((label, _), retired) in behaviours.iter().zip(&retired_counts) {
        let slowdown = if *retired > 0.0 { baseline / retired } else { f64::INFINITY };
        t.row(vec![(*label).to_owned(), f(*retired, 0), format!("{:.1}x", slowdown)]);
    }
    let note = "paper: a single clear stalls the sibling ~235 cycles; sustained \
                storms slow it several-fold (§7 reports up to 10x in the case studies).";
    Ok(Report::new("ablation_slowdown", t, note))
}
