//! Case Study III: single-trace attack on OpenSSL's SRP server key
//! (paper §5.3, Figure 6, Table 2).
//!
//! `SRP_Calc_server_key` exponentiates with the per-login ephemeral secret
//! `b` through the non-constant-time sliding-window `BN_mod_exp_mont`, so
//! the attacker gets exactly **one** trace per key. The attacker monitors
//! the multiply routine's L1i set and measures the run of squares between
//! consecutive multiplies; each run length is one of the paper's seven
//! patterns (`0`, `1`, `11`, `1X1`, …, `1XXXX1`). Larger groups mean
//! quadratically slower squares, i.e. more samples per square and a
//! cleaner trace — which is why the paper's leakage *rises* with group
//! size (65% → 90%).
//!
//! The sampler is pluggable (a closure) so one pipeline,
//! [`single_trace_attack_with`], runs both the SMC-based Prime+iStore
//! attack and the Mastik-style classic Prime+Probe baseline for the
//! Table 2 comparison.

use smack_crypto::modexp::SlidingWindowSchedule;
use smack_crypto::{Bignum, WindowSizing};
use smack_uarch::{Machine, NoiseConfig, ProbeKind, ThreadId};
use smack_victims::modexp::{ModexpAlgorithm, ModexpVictim, ModexpVictimBuilder};

use crate::calibrate::CalibratedProbe;
use crate::oracle::EvictionSet;
use crate::probe::Prober;
use crate::session::Session;

const ATTACKER: ThreadId = ThreadId::T0;
const VICTIM: ThreadId = ThreadId::T1;
const EVSET_BASE: u64 = 0x0a20_0000;

/// SRP attack configuration.
#[derive(Copy, Clone, Debug)]
pub struct SrpAttackConfig {
    /// SMC probe class (the paper uses Prime+iStore).
    pub kind: ProbeKind,
    /// Wait between prime and probe.
    pub wait_cycles: u64,
    /// τ_w jitter amplitude: the trace waits `wait_cycles ± wait_jitter`
    /// cycles, drawn deterministically from the machine seed (see
    /// [`crate::probe::jittered_wait`]). Zero keeps the historical fixed
    /// exposure window.
    pub wait_jitter: u64,
    /// How many LRU-first ways to probe per round.
    pub probe_ways: usize,
    /// Noise model.
    pub noise: NoiseConfig,
    /// SRP group size in bits.
    pub group_bits: usize,
}

impl SrpAttackConfig {
    /// Paper-like defaults for a group size. The prime→probe wait is tuned
    /// per group size (as §5.3 tunes its empty-loop length to the target).
    pub fn new(group_bits: usize) -> SrpAttackConfig {
        let wait_cycles = match group_bits {
            0..=1024 => 600,
            1025..=2048 => 300,
            2049..=4096 => 600,
            _ => 300,
        };
        SrpAttackConfig {
            kind: ProbeKind::Store,
            wait_cycles,
            wait_jitter: 0,
            probe_ways: 1,
            noise: NoiseConfig::realistic(),
            group_bits,
        }
    }
}

/// Build the sliding-window victim for a group size and exponent width.
///
/// OpenSSL sizes the window by the *exponent's* bit length, while the
/// per-operation cost scales with the *group* (modulus) size.
pub fn build_victim(group_bits: usize, exp_bits: usize) -> ModexpVictim {
    let window = WindowSizing::for_exponent_bits(exp_bits) as u64;
    let mut b = ModexpVictimBuilder::new(ModexpAlgorithm::SlidingWindow { window });
    b.operand_bits(group_bits);
    b.build()
}

/// Collect activity samples `(attacker_clock, active)` for one run of the
/// victim computing with secret exponent `b`, using a caller-supplied
/// sampler (one prime/wait/probe round per call).
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn collect_events<F>(
    machine: &mut Machine,
    victim: &ModexpVictim,
    b: &Bignum,
    mut sample: F,
    max_samples: usize,
) -> Result<Vec<(u64, bool)>, String>
where
    F: FnMut(&mut Machine) -> Result<bool, String>,
{
    victim.start(machine, VICTIM, b);
    let mut out = Vec::new();
    while machine.state(VICTIM) == smack_uarch::ThreadState::Running && out.len() < max_samples {
        let at = machine.clock(ATTACKER);
        let active = sample(machine)?;
        out.push((at, active));
    }
    Ok(out)
}

/// The SMC sampler: installs an eviction set over the victim's multiply
/// set (on a machine with the victim loaded) and returns a closure
/// running one prime → τ_w → probe round, classified against `cal`.
fn smc_sampler(
    machine: &mut Machine,
    victim: &ModexpVictim,
    cfg: &SrpAttackConfig,
    cal: CalibratedProbe,
    seed: u64,
) -> Result<impl FnMut(&mut Machine) -> Result<bool, String>, String> {
    machine.set_noise(cfg.noise);
    let ev = EvictionSet::for_machine(machine, EVSET_BASE, victim.mul_set);
    ev.install(machine);
    for w in ev.ways() {
        machine.warm_tlb(ATTACKER, *w);
    }
    let kind = cfg.kind;
    let wait = crate::probe::jittered_wait(cfg.wait_cycles, cfg.wait_jitter, seed);
    let ways = cfg.probe_ways;
    let mut prober = Prober::new(ATTACKER);
    // One timing buffer reused across every sample of the trace.
    let mut timings = Vec::new();
    Ok(move |m: &mut Machine| -> Result<bool, String> {
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        prober.wait(m, wait).map_err(|e| e.to_string())?;
        ev.probe_first_into(m, &mut prober, kind, ways, &mut timings).map_err(|e| e.to_string())?;
        Ok(timings.iter().any(|t| !cal.is_hit(*t)))
    })
}

/// Multiply-cluster start times: bursts are clustered exactly as in
/// [`crate::decode`] (the per-multiply refetch doublet merges away), and
/// each cluster's first sample time is reported — the Figure 6 x-axis.
pub fn event_times(samples: &[(u64, bool)]) -> Vec<u64> {
    let actives: Vec<bool> = samples.iter().map(|(_, a)| *a).collect();
    let Some((bursts, _)) = crate::decode::extract_bursts(&actives) else {
        return Vec::new();
    };
    bursts.iter().map(|b| samples[b.first].0).collect()
}

/// Estimate the per-gap square-run lengths `Ŝ_j` from the raw samples.
///
/// Each multiply is one activity burst (see [`crate::decode`]); between
/// consecutive multiplies the victim runs one multiply plus the span's
/// squares, so `Ŝ = round(start_gap / unit) - 1`.
pub fn measured_square_runs(samples: &[(u64, bool)]) -> Vec<u32> {
    let actives: Vec<bool> = samples.iter().map(|(_, a)| *a).collect();
    let Some((bursts, unit)) = crate::decode::extract_bursts(&actives) else {
        return Vec::new();
    };
    crate::decode::ops_between_bursts(&bursts, unit)
        .into_iter()
        .map(|ops| (ops - 1).max(1))
        .collect()
}

/// Ground-truth square-run structure between consecutive multiplies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TruthSpan {
    /// Squares executed between the previous multiply and this one
    /// (zero-bit squares plus the window's squares).
    pub squares: u32,
    /// Exponent bits covered by this span.
    pub bits: u32,
    /// How many of those bits are recoverable (zeros + window endpoints).
    pub known_bits: u32,
}

/// Walk a sliding-window schedule into per-multiply [`TruthSpan`]s
/// (excluding the first window, which executes no squares).
pub fn truth_spans(schedule: &SlidingWindowSchedule) -> Vec<TruthSpan> {
    let mut spans = Vec::new();
    let mut squares = 0u32;
    let mut bits = 0u32;
    let mut known = 0u32;
    let mut seen_first_window = false;
    for step in &schedule.steps {
        match step.wvalue {
            None => {
                // Lone zero bit: one square (once started), fully known.
                squares += step.squares;
                bits += 1;
                known += 1;
            }
            Some(_) => {
                let w = step.bits;
                bits += w;
                known += if w == 1 { 1 } else { 2 };
                squares += step.squares;
                if seen_first_window {
                    spans.push(TruthSpan { squares, bits, known_bits: known });
                }
                seen_first_window = true;
                squares = 0;
                bits = 0;
                known = 0;
            }
        }
    }
    // An even exponent ends in lone zero bits after the last window: their
    // squares run until the exponentiation returns, so they form one final
    // (fully known) span. Without this the trailing bits vanish from the
    // ground truth and spans no longer cover the exponent.
    if seen_first_window && bits > 0 {
        spans.push(TruthSpan { squares, bits, known_bits: known });
    }
    spans
}

/// Leakage rate: the fraction of *recoverable* bits lying in spans whose
/// square-run length was measured exactly (the attacker recovers a span's
/// zeros and window endpoints if and only if it times the run correctly).
///
/// Measured and true span sequences are aligned with a weighted
/// longest-common-subsequence, so a missed or spurious multiply event
/// costs only its own span rather than shifting every later span out of
/// credit — the standard alignment used when evaluating partial key
/// recovery.
pub fn leakage_rate(measured: &[u32], truth: &[TruthSpan]) -> f64 {
    let total: u32 = truth.iter().map(|s| s.known_bits).sum();
    if total == 0 {
        return 0.0;
    }
    // dp[i][j] = best recovered known-bits using measured[..i], truth[..j].
    let n = measured.len();
    let m = truth.len();
    let mut dp = vec![vec![0u32; m + 1]; n + 1];
    for i in 1..=n {
        for j in 1..=m {
            let mut best = dp[i - 1][j].max(dp[i][j - 1]);
            if measured[i - 1] == truth[j - 1].squares {
                best = best.max(dp[i - 1][j - 1] + truth[j - 1].known_bits);
            }
            dp[i][j] = best;
        }
    }
    let recall = dp[n][m] as f64 / total as f64;
    // Spurious events make the alignment cherry-pick: discount traces that
    // report more multiply events than the schedule contains (a
    // precision-style correction; a perfect trace is unaffected).
    let precision_factor = if n > m { m as f64 / n as f64 } else { 1.0 };
    recall * precision_factor
}

/// Outcome of one single-trace SRP attack.
#[derive(Clone, Debug)]
pub struct SrpAttackOutcome {
    /// Leakage rate over recoverable bits.
    pub leakage: f64,
    /// Number of multiply events observed.
    pub events: usize,
    /// Number of multiply events in the ground truth.
    pub truth_events: usize,
    /// Raw samples (for Figure 6 rendering).
    pub samples: Vec<(u64, bool)>,
}

/// Run the full single-trace attack with the SMC sampler inside a
/// [`Session`]: the machine comes from the pool (in its cold start state)
/// and the probe threshold from the calibration cache. The session's
/// noise model must match `cfg.noise`.
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn single_trace_attack_in(
    session: &mut Session<'_>,
    b: &Bignum,
    cfg: &SrpAttackConfig,
) -> Result<SrpAttackOutcome, String> {
    session.require_noise(cfg.noise)?;
    let cal =
        session.calibrated(cfg.kind, smack_uarch::Placement::L2).map_err(|e| e.to_string())?;
    let seed = session.scenario().seed();
    single_trace_attack_with(session.machine(), b, cfg.group_bits, |m, victim| {
        smc_sampler(m, victim, cfg, cal, seed)
    })
}

/// The single-trace pipeline every monitor runs through: build the
/// `group_bits` victim for exponent `b` and load it into `machine` (in
/// its cold start state), let `setup` install the attacker and return
/// its sampler (one prime → wait → probe round per call), collect one
/// trace of at most `group_bits * 60 + 10_000` samples, and score it
/// against the sliding-window ground truth. The SMaCk attack
/// ([`single_trace_attack_in`]) and table2's Mastik baseline both go
/// through here.
///
/// # Errors
///
/// Returns a message on setup or simulator errors.
pub fn single_trace_attack_with<S, F>(
    machine: &mut Machine,
    b: &Bignum,
    group_bits: usize,
    setup: S,
) -> Result<SrpAttackOutcome, String>
where
    S: FnOnce(&mut Machine, &ModexpVictim) -> Result<F, String>,
    F: FnMut(&mut Machine) -> Result<bool, String>,
{
    let victim = build_victim(group_bits, b.bit_len());
    machine.load_program(&victim.program);
    let sampler = setup(machine, &victim)?;
    let max_samples = group_bits * 60 + 10_000;
    let samples = collect_events(machine, &victim, b, sampler, max_samples)?;
    let events = event_times(&samples);
    let measured = measured_square_runs(&samples);
    let schedule = smack_crypto::modexp::sliding_window_schedule(b);
    let truth = truth_spans(&schedule);
    Ok(SrpAttackOutcome {
        leakage: leakage_rate(&measured, &truth),
        events: events.len(),
        truth_events: truth.len() + 1,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Scenario, Sessions};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smack_crypto::modexp::sliding_window_schedule;

    #[test]
    fn truth_spans_cover_the_exponent() {
        let mut rng = SmallRng::seed_from_u64(41);
        let b = Bignum::random_bits(&mut rng, 512);
        let schedule = sliding_window_schedule(&b);
        let spans = truth_spans(&schedule);
        // Spans plus the first window cover all bits.
        let span_bits: u32 = spans.iter().map(|s| s.bits).sum();
        let first_window_bits =
            schedule.steps.iter().find(|s| s.wvalue.is_some()).expect("has a window").bits;
        assert_eq!(span_bits + first_window_bits, b.bit_len() as u32);
        // Every span's squares equal its bit count (one square per bit).
        for s in &spans {
            assert_eq!(s.squares, s.bits);
            assert!(s.known_bits <= s.bits);
        }
    }

    #[test]
    fn perfect_measurement_gives_full_leakage() {
        let mut rng = SmallRng::seed_from_u64(42);
        let b = Bignum::random_bits(&mut rng, 256);
        let truth = truth_spans(&sliding_window_schedule(&b));
        let perfect: Vec<u32> = truth.iter().map(|s| s.squares).collect();
        assert!((leakage_rate(&perfect, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_errors_reduce_leakage() {
        let mut rng = SmallRng::seed_from_u64(43);
        let b = Bignum::random_bits(&mut rng, 256);
        let truth = truth_spans(&sliding_window_schedule(&b));
        let mut off: Vec<u32> = truth.iter().map(|s| s.squares).collect();
        for v in off.iter_mut().step_by(2) {
            *v += 1;
        }
        let rate = leakage_rate(&off, &truth);
        assert!(rate < 0.7, "half-wrong measurement: {rate}");
    }

    #[test]
    fn square_run_estimation_from_synthetic_samples() {
        // Unit = 4 samples; each multiply is a 4-sample activity burst
        // starting at ops 0, 4 and 9: start gaps of 4 and 5 operations,
        // i.e. square runs of 3 and 4.
        let mut actives = [false; 48];
        for burst_start in [0usize, 16, 36] {
            for s in 0..4 {
                actives[burst_start + s] = true;
            }
        }
        let samples: Vec<(u64, bool)> =
            actives.iter().enumerate().map(|(i, a)| (i as u64 * 100, *a)).collect();
        let runs = measured_square_runs(&samples);
        assert_eq!(runs, vec![3, 4]);
    }

    #[test]
    fn single_trace_attack_on_small_group() {
        let mut rng = SmallRng::seed_from_u64(44);
        // A 4096-bit group gives comfortable per-square resolution; the
        // attack should catch a solid majority of the recoverable bits
        // (the paper reports 83% at this size).
        let b = Bignum::random_bits(&mut rng, 160);
        let cfg = SrpAttackConfig { noise: NoiseConfig::quiet(), ..SrpAttackConfig::new(4096) };
        let sessions = Sessions::new();
        let scenario =
            Scenario::new(smack_uarch::MicroArch::TigerLake).with_noise(cfg.noise).with_seed(3);
        let out = single_trace_attack_in(&mut sessions.session(&scenario), &b, &cfg)
            .expect("attack runs");
        assert!(out.leakage > 0.5, "leakage {}", out.leakage);
        assert!(out.events > 10);
    }
}
