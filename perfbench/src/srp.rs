//! `srp-table2`: one table2 key per SRP group at paper scale — full-length
//! exponents, the Prime+iStore single-trace attack and the Mastik
//! baseline, exactly as one table2 cell runs them.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::oracle::EvictionSet;
use smack::probe::{jittered_wait, Prober};
use smack::session::{Scenario, Session, Sessions};
use smack::srp::{self, SrpAttackConfig};
use smack_crypto::{sliding_window_schedule, Bignum, SrpGroup};
use smack_mastik::MastikMonitor;
use smack_uarch::{Machine, MicroArch, NoiseConfig, Placement};

use crate::harness::{
    retired, span, Counters, Drift, Fnv, Laps, Phases, Trace, Workload, ATTACKER,
};

/// Keys per group in table2; the seed picks one of them.
const TABLE2_KEYS: u64 = 100;
/// Where `smack::srp` places its eviction set. The traced path asserts
/// equality with `srp::single_trace_attack_in`, so a drift here fails
/// loudly instead of timing a different attack.
const SRP_EVSET_BASE: u64 = 0x0a20_0000;
/// table2's Mastik eviction region and prime→probe wait.
const MASTIK_BASE: u64 = 0x0a50_0000;
const MASTIK_WAIT: u64 = 600;

/// Paper values the repository quotes for table2: (group, column,
/// percent, where quoted).
const PAPER: [(usize, &str, f64, &str); 5] = [
    (1024, "Prime+iStore", 65.0, "ROADMAP open items; experiments.rs table2 paper shape"),
    (4096, "Prime+iStore", 83.0, "srp.rs single_trace_attack_on_small_group comment"),
    (6144, "Prime+iStore", 90.0, "ROADMAP open items; experiments.rs table2 paper shape"),
    (1024, "Mastik", 22.0, "ROADMAP open items; experiments.rs table2 paper shape"),
    (6144, "Mastik", 48.0, "ROADMAP open items; experiments.rs table2 paper shape"),
];

/// The workload: table2's key `seed % 100` in each of the four groups.
pub struct SrpTable2 {
    key: u64,
    exps: Vec<Bignum>,
}

/// One table2 cell.
#[derive(PartialEq, Debug)]
pub struct SrpOut {
    leakage: f64,
    events: usize,
    truth_events: usize,
    samples: Vec<(u64, bool)>,
    mastik_leakage: f64,
    mastik_samples: usize,
    counters: Counters,
}

impl SrpTable2 {
    /// Inputs for `seed`: table2 seeds key `k`'s exponent with `0x7b + k`
    /// and its machines with `k`.
    pub fn new(seed: u64) -> SrpTable2 {
        let key = seed % TABLE2_KEYS;
        let exps = SrpGroup::PAPER_SIZES
            .iter()
            .map(|bits| Bignum::random_bits(&mut SmallRng::seed_from_u64(0x7b + key), *bits))
            .collect();
        SrpTable2 { key, exps }
    }

    fn scenario(&self) -> Scenario {
        Scenario::new(MicroArch::TigerLake).with_noise(NoiseConfig::noisy()).with_seed(self.key)
    }

    fn cfg(group: usize) -> SrpAttackConfig {
        SrpAttackConfig { noise: NoiseConfig::noisy(), ..SrpAttackConfig::new(group) }
    }
}

fn leakage_of(samples: &[(u64, bool)], b: &Bignum) -> f64 {
    let measured = srp::measured_square_runs(samples);
    let truth = srp::truth_spans(&sliding_window_schedule(b));
    srp::leakage_rate(&measured, &truth)
}

/// `srp::single_trace_attack_in`, rebuilt from its public pieces: the
/// sampler handed to `srp::collect_events` is `EvictionSet::prime`,
/// `Prober::wait` and `EvictionSet::probe_first`, each timed.
fn traced_attack(
    session: &mut Session<'_>,
    b: &Bignum,
    cfg: &SrpAttackConfig,
    tr: &mut Trace,
) -> Result<srp::SrpAttackOutcome, String> {
    session.require_noise(cfg.noise)?;
    let cal = session.calibrated(cfg.kind, Placement::L2).map_err(|e| e.to_string())?;
    let seed = session.scenario().seed();
    let t = Instant::now();
    let victim = srp::build_victim(cfg.group_bits, b.bit_len());
    tr.span("victim.build", t);
    let machine = session.machine();
    machine.set_noise(cfg.noise);
    machine.load_program(&victim.program);
    let ev = EvictionSet::for_machine(machine, SRP_EVSET_BASE, victim.mul_set);
    ev.install(machine);
    for w in ev.ways() {
        machine.warm_tlb(ATTACKER, *w);
    }
    let wait = jittered_wait(cfg.wait_cycles, cfg.wait_jitter, seed);
    let mut prober = Prober::new(ATTACKER);
    let mut phases = Phases::default();
    let sampler = |m: &mut Machine| -> Result<bool, String> {
        let (t0, i0) = (Instant::now(), retired(m));
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        let (t1, i1) = (Instant::now(), retired(m));
        prober.wait(m, wait).map_err(|e| e.to_string())?;
        let (t2, i2) = (Instant::now(), retired(m));
        let timings =
            ev.probe_first(m, &mut prober, cfg.kind, cfg.probe_ways).map_err(|e| e.to_string())?;
        phases.record([t0, t1, t2, Instant::now()], [i0, i1, i2, retired(m)]);
        Ok(timings.iter().any(|t| !cal.is_hit(*t)))
    };
    let max_samples = cfg.group_bits * 60 + 10_000;
    let samples = srp::collect_events(machine, &victim, b, sampler, max_samples)?;
    phases.flush(tr);
    let t = Instant::now();
    let outcome = srp::SrpAttackOutcome {
        leakage: leakage_of(&samples, b),
        events: srp::event_times(&samples).len(),
        truth_events: srp::truth_spans(&sliding_window_schedule(b)).len() + 1,
        samples,
    };
    tr.span("decode", t);
    Ok(outcome)
}

/// table2's Mastik baseline on a machine in its cold start state.
fn mastik(machine: &mut Machine, group: usize, b: &Bignum) -> Result<(f64, usize), String> {
    let victim = srp::build_victim(group, b.bit_len());
    machine.load_program(&victim.program);
    let mut monitor =
        MastikMonitor::new(machine, ATTACKER, MASTIK_BASE, victim.mul_set, MASTIK_WAIT)
            .map_err(|e| e.to_string())?;
    let sampler = |m: &mut Machine| monitor.sample(m).map_err(|e| e.to_string());
    let samples = srp::collect_events(machine, &victim, b, sampler, group * 60 + 10_000)?;
    Ok((leakage_of(&samples, b), samples.len()))
}

impl Workload for SrpTable2 {
    type Out = SrpOut;

    fn cells(&self) -> Vec<String> {
        SrpGroup::PAPER_SIZES.iter().map(|g| format!("group{g}")).collect()
    }

    fn warm(&self, sessions: &Sessions) -> Result<Duration, String> {
        let session = sessions.session(&self.scenario());
        let t = Instant::now();
        session.calibrated(Self::cfg(1024).kind, Placement::L2).map_err(|e| e.to_string())?;
        Ok(t.elapsed())
    }

    /// table2's cell body: the attack, a renew, the Mastik baseline; two
    /// steps, split before the renew.
    fn run(
        &self,
        sessions: &Sessions,
        cell: usize,
        laps: &mut Laps,
        mut tr: Option<&mut Trace>,
    ) -> Result<SrpOut, String> {
        let (group, b) = (SrpGroup::PAPER_SIZES[cell], &self.exps[cell]);
        let cfg = Self::cfg(group);
        let t = Instant::now();
        let mut session = sessions.session(&self.scenario());
        span(&mut tr, "session.checkout", t);
        let attack = match tr.as_deref_mut() {
            Some(tr) => traced_attack(&mut session, b, &cfg, tr)?,
            None => srp::single_trace_attack_in(&mut session, b, &cfg)?,
        };
        let mut counters = Counters::read(session.machine());
        laps.lap();
        let t = Instant::now();
        session.renew(self.key);
        let t = span(&mut tr, "session.checkout", t);
        let (mastik_leakage, mastik_samples) = mastik(session.machine(), group, b)?;
        span(&mut tr, "mastik", t);
        counters.add(&Counters::read(session.machine()));
        if let Some(tr) = tr {
            tr.count("session.checkouts", 2);
        }
        Ok(SrpOut {
            leakage: attack.leakage,
            events: attack.events,
            truth_events: attack.truth_events,
            samples: attack.samples,
            mastik_leakage,
            mastik_samples,
            counters,
        })
    }

    fn check(&self, _cell: usize, out: &SrpOut) -> Result<(), String> {
        let in_range = |x: f64| (0.0..=1.0).contains(&x);
        if out.samples.is_empty() || out.events == 0 || out.mastik_samples == 0 {
            return Err(format!(
                "empty trace: {} samples, {} events",
                out.samples.len(),
                out.events
            ));
        }
        if !in_range(out.leakage) || !in_range(out.mastik_leakage) {
            return Err(format!("leakage out of range: {} / {}", out.leakage, out.mastik_leakage));
        }
        Ok(())
    }

    fn counters<'a>(&self, out: &'a SrpOut) -> &'a Counters {
        &out.counters
    }

    fn digest(&self, out: &SrpOut, h: &mut Fnv) {
        h.f64(out.leakage);
        h.u64(out.events as u64);
        h.u64(out.truth_events as u64);
        h.u64(out.samples.len() as u64);
        for (at, active) in &out.samples {
            h.u64(*at);
            h.u64(u64::from(*active));
        }
        h.f64(out.mastik_leakage);
        h.u64(out.mastik_samples as u64);
    }

    fn paper_rows(&self, cell: usize, out: &SrpOut) -> Vec<Drift> {
        let group = SrpGroup::PAPER_SIZES[cell];
        PAPER
            .iter()
            .filter(|(g, ..)| *g == group)
            .map(|(g, column, paper_pct, source)| Drift {
                row: format!("table2 {column} {g}-bit (key {})", self.key),
                sim_pct: 100.0 * if *column == "Mastik" { out.mastik_leakage } else { out.leakage },
                paper_pct: *paper_pct,
                source,
            })
            .collect()
    }
}
