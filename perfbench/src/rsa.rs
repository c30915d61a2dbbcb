//! `rsa-vote`: fig5's four probe classes on the 512-bit paper key, with the
//! full 25-trace budget scored after every trace and no early exit.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::oracle::EvictionSet;
use smack::probe::{jittered_wait, Prober};
use smack::rsa::{self, ActivitySample, RsaAttackConfig, RsaTrace};
use smack::session::{Scenario, Session, Sessions};
use smack_crypto::Bignum;
use smack_uarch::{MicroArch, NoiseConfig, Placement, ProbeKind, ThreadState};
use smack_victims::modexp::ModexpVictim;

use crate::harness::{
    retired, span, Counters, Drift, Fnv, Laps, Phases, Trace, Workload, ATTACKER, VICTIM,
};

/// fig5's probe classes (`smack_bench::experiments::FIG5_KINDS`).
const KINDS: [ProbeKind; 4] =
    [ProbeKind::Flush, ProbeKind::Store, ProbeKind::Lock, ProbeKind::Clwb];
/// fig5's full-mode trace budget and exponent width.
const TRACES: u64 = 25;
const EXP_BITS: usize = 512;
/// Where `smack::rsa` places its eviction set. The traced path asserts
/// equality with `rsa::collect_trace_in`, so a drift here fails loudly.
const RSA_EVSET_BASE: u64 = 0x0a10_0000;
/// The single-trace recovery the repository quotes for the paper.
const PAPER_SINGLE_TRACE_PCT: f64 = 63.0;

/// The workload: fig5's key, with the trace seeds shifted by the seed.
pub struct RsaVote {
    exp: Bignum,
    first_trace_seed: u64,
}

/// One probe class: every trace plus the score after each vote.
#[derive(PartialEq, Debug)]
pub struct RsaOut {
    traces: Vec<RsaTrace>,
    voted: Vec<f64>,
    positional_single: f64,
    counters: Counters,
}

impl RsaVote {
    /// Inputs for `seed`: fig5's exponent (`0xf5`) and trace seeds
    /// `2000 + 25·seed + i`, so seed 0 replays fig5's own traces.
    pub fn new(seed: u64) -> RsaVote {
        let exp = Bignum::random_bits(&mut SmallRng::seed_from_u64(0xf5), EXP_BITS);
        RsaVote { exp, first_trace_seed: 2_000u64.wrapping_add(seed.wrapping_mul(TRACES)) }
    }

    fn scenario() -> Scenario {
        Scenario::new(MicroArch::TigerLake).with_noise(NoiseConfig::realistic())
    }
}

/// `rsa::collect_trace_in`, rebuilt from its public pieces with the
/// sampling phases timed.
fn traced_trace(
    session: &mut Session<'_>,
    victim: &ModexpVictim,
    exp: &Bignum,
    cfg: &RsaAttackConfig,
    phases: &mut Phases,
) -> Result<RsaTrace, String> {
    session.require_noise(cfg.noise)?;
    let cal = session.calibrated(cfg.kind, Placement::L2).map_err(|e| e.to_string())?;
    let seed = session.scenario().seed();
    let m = session.machine();
    m.load_program(&victim.program);
    let ev = EvictionSet::for_machine(m, RSA_EVSET_BASE, victim.mul_set);
    ev.install(m);
    for w in ev.ways() {
        m.warm_tlb(ATTACKER, *w);
    }
    let mut prober = Prober::new(ATTACKER);
    let wait = jittered_wait(cfg.wait_cycles, cfg.wait_jitter, seed);
    m.advance(ATTACKER, seed % 997).map_err(|e| e.to_string())?;
    victim.start(m, VICTIM, exp);
    let victim_start = m.clock(VICTIM);
    let max_samples = exp.bit_len() * 40 + 4_000;
    let mut samples = Vec::new();
    while m.state(VICTIM) == ThreadState::Running && samples.len() < max_samples {
        let at = m.clock(ATTACKER);
        let (t0, i0) = (Instant::now(), retired(m));
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        let (t1, i1) = (Instant::now(), retired(m));
        prober.wait(m, wait).map_err(|e| e.to_string())?;
        let (t2, i2) = (Instant::now(), retired(m));
        let timings =
            ev.probe_first(m, &mut prober, cfg.kind, cfg.probe_ways).map_err(|e| e.to_string())?;
        phases.record([t0, t1, t2, Instant::now()], [i0, i1, i2, retired(m)]);
        let active = timings.iter().any(|t| !cal.is_hit(*t));
        let min_timing = *timings.iter().min().expect("nonempty ways");
        samples.push(ActivitySample { at, min_timing, active });
    }
    Ok(RsaTrace { samples, victim_cycles: m.clock(VICTIM) - victim_start })
}

impl Workload for RsaVote {
    type Out = RsaOut;

    fn cells(&self) -> Vec<String> {
        KINDS.iter().map(|k| format!("{k}")).collect()
    }

    fn warm(&self, sessions: &Sessions) -> Result<Duration, String> {
        let session = sessions.session(&Self::scenario());
        let t = Instant::now();
        for kind in KINDS {
            session.calibrated(kind, Placement::L2).map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed())
    }

    /// fig5's per-class trial body without its early exit; one step per
    /// trace (collect, decode, vote).
    fn run(
        &self,
        sessions: &Sessions,
        cell: usize,
        laps: &mut Laps,
        mut tr: Option<&mut Trace>,
    ) -> Result<RsaOut, String> {
        let cfg = RsaAttackConfig::new(KINDS[cell]);
        let nbits = self.exp.bit_len();
        let t = Instant::now();
        let victim = rsa::build_victim(&cfg);
        let t = span(&mut tr, "victim.build", t);
        let mut session = sessions.session(&Self::scenario());
        span(&mut tr, "session.checkout", t);
        let mut phases = Phases::default();
        let mut out = RsaOut {
            traces: Vec::new(),
            voted: Vec::new(),
            positional_single: 0.0,
            counters: Counters::default(),
        };
        let mut decodes = Vec::new();
        for i in 0..TRACES {
            if i > 0 {
                laps.lap();
            }
            let t = Instant::now();
            session.renew(self.first_trace_seed.wrapping_add(i));
            span(&mut tr, "session.checkout", t);
            let trace = match tr {
                Some(_) => traced_trace(&mut session, &victim, &self.exp, &cfg, &mut phases)?,
                None => rsa::collect_trace_in(&mut session, &victim, &self.exp, &cfg)?,
            };
            out.counters.add(&Counters::read(session.machine()));
            let t = Instant::now();
            let decoded = rsa::decode_trace(&trace, nbits);
            if i == 0 {
                out.positional_single = rsa::score_bits(&decoded, &self.exp);
            }
            decodes.push(decoded);
            let t = span(&mut tr, "decode", t);
            let combined = rsa::majority_vote(&decodes, nbits);
            out.voted.push(rsa::score_bits_aligned(&combined, &self.exp));
            span(&mut tr, "vote", t);
            out.traces.push(trace);
        }
        if let Some(tr) = tr {
            tr.count("session.checkouts", 1 + TRACES);
            phases.flush(tr);
        }
        Ok(out)
    }

    fn check(&self, _cell: usize, out: &RsaOut) -> Result<(), String> {
        if out.traces.len() as u64 != TRACES || out.traces.iter().any(|t| t.samples.is_empty()) {
            return Err(format!("{} traces, some empty", out.traces.len()));
        }
        if out.voted.iter().chain([&out.positional_single]).any(|r| !(0.0..=1.0).contains(r)) {
            return Err(format!("recovery out of range: {:?}", out.voted));
        }
        Ok(())
    }

    fn counters<'a>(&self, out: &'a RsaOut) -> &'a Counters {
        &out.counters
    }

    fn digest(&self, out: &RsaOut, h: &mut Fnv) {
        for trace in &out.traces {
            h.u64(trace.victim_cycles);
            h.u64(trace.samples.len() as u64);
            for s in &trace.samples {
                h.u64(s.at);
                h.u64(s.min_timing);
                h.u64(u64::from(s.active));
            }
        }
        for r in &out.voted {
            h.f64(*r);
        }
        h.f64(out.positional_single);
    }

    fn paper_rows(&self, cell: usize, out: &RsaOut) -> Vec<Drift> {
        vec![Drift {
            row: format!("fig5 single-trace recovery {}", KINDS[cell]),
            sim_pct: 100.0 * out.voted[0],
            paper_pct: PAPER_SINGLE_TRACE_PCT,
            source: "experiments.rs fig5 paper shape; ROADMAP State at re-anchor",
        }]
    }
}
