//! Case Study II: RSA key recovery with Prime+iProbe (paper §5.2,
//! Figures 4 and 5).
//!
//! The victim runs a Libgcrypt-1.5.1-style binary square-and-multiply
//! decryption on the sibling thread; squares and multiplies call routines
//! in *different* L1i sets. The attacker owns an eviction set over the
//! multiply set and loops prime → wait(τ_w) → SMC-probe. A multiplication
//! evicts one attacker way, which then probes *without* a machine-clear
//! conflict — a low timing in an otherwise-high probe round.
//!
//! Decoding rides on the schedule structure: every exponent bit costs one
//! square, and every set bit adds one multiply, so the number of idle
//! samples between consecutive multiply events encodes the run of zero
//! bits in between (the paper's "three samples for `11`, plus two per `0`"
//! observation). A missed or spurious event perturbs decoded bits only
//! *locally* (the run lengths re-synchronize), which is what makes
//! majority voting across a handful of traces effective (Figure 5).

use smack_crypto::Bignum;
use smack_uarch::{NoiseConfig, ProbeKind, ThreadId};
use smack_victims::modexp::{ModexpAlgorithm, ModexpVictim, ModexpVictimBuilder};

use crate::decode::{align_runs, to_runs};
use crate::oracle::EvictionSet;
use crate::probe::Prober;
use crate::session::Session;

const ATTACKER: ThreadId = ThreadId::T0;
const VICTIM: ThreadId = ThreadId::T1;
const EVSET_BASE: u64 = 0x0a10_0000;

/// Attack configuration.
#[derive(Copy, Clone, Debug)]
pub struct RsaAttackConfig {
    /// SMC probe class (the paper evaluates Flush, Store, Lock and Clwb).
    pub kind: ProbeKind,
    /// Wait between prime and probe (the paper's ~700-iteration loop).
    pub wait_cycles: u64,
    /// τ_w jitter amplitude: each trace waits
    /// `wait_cycles ± wait_jitter` cycles, drawn deterministically from
    /// the trace seed (see [`crate::probe::jittered_wait`]). Zero (the
    /// default) keeps the historical fixed exposure window; nonzero
    /// decorrelates systematic decode misses across traces so majority
    /// voting can outvote them.
    pub wait_jitter: u64,
    /// How many LRU-first ways to probe per round (probing fewer ways
    /// shortens the sample period; LRU replacement makes the first primed
    /// ways the eviction victims).
    pub probe_ways: usize,
    /// Noise model for the run.
    pub noise: NoiseConfig,
    /// RSA modulus size in bits (cost model for the victim's routines).
    pub operand_bits: usize,
}

impl RsaAttackConfig {
    /// Paper-like defaults for a probe class.
    pub fn new(kind: ProbeKind) -> RsaAttackConfig {
        RsaAttackConfig {
            kind,
            wait_cycles: 100,
            wait_jitter: 0,
            probe_ways: 1,
            noise: NoiseConfig::realistic(),
            operand_bits: 2048,
        }
    }
}

/// One attacker sample.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ActivitySample {
    /// Attacker clock at the start of the sample.
    pub at: u64,
    /// Lowest per-way probe timing in the round (the Figure 4 y-axis).
    pub min_timing: u64,
    /// Whether a victim fetch evicted one of the attacker's ways.
    pub active: bool,
}

/// A collected trace plus metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaTrace {
    /// Samples in time order.
    pub samples: Vec<ActivitySample>,
    /// Victim cycles the decryption took under attack.
    pub victim_cycles: u64,
}

/// Build the standard victim for this attack.
pub fn build_victim(cfg: &RsaAttackConfig) -> ModexpVictim {
    let mut b = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr);
    b.operand_bits(cfg.operand_bits);
    b.build()
}

/// Collect one trace of the victim decrypting with exponent `exp` inside
/// a [`Session`]: the machine comes from the pool (in its cold start
/// state — [`Session::renew`] between traces) and the probe threshold from
/// the calibration cache. The session's noise model must match
/// `cfg.noise`, and its seed staggers the attacker phase.
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn collect_trace_in(
    session: &mut Session<'_>,
    victim: &ModexpVictim,
    exp: &Bignum,
    cfg: &RsaAttackConfig,
) -> Result<RsaTrace, String> {
    session.require_noise(cfg.noise)?;
    // `calibrate`'s default cold state is L2 (a just-evicted line).
    let cal =
        session.calibrated(cfg.kind, smack_uarch::Placement::L2).map_err(|e| e.to_string())?;
    let seed = session.scenario().seed();
    let m = session.machine();
    m.load_program(&victim.program);
    let ev = EvictionSet::for_machine(m, EVSET_BASE, victim.mul_set);
    ev.install(m);
    for w in ev.ways() {
        m.warm_tlb(ATTACKER, *w);
    }
    let mut prober = Prober::new(ATTACKER);
    let wait_cycles = crate::probe::jittered_wait(cfg.wait_cycles, cfg.wait_jitter, seed);

    // Stagger the attacker's phase: on real hardware consecutive traces
    // never align with the victim identically, and the decoder's rounding
    // benefits from that diversity during majority voting.
    m.advance(ATTACKER, seed % 997).map_err(|e| e.to_string())?;
    victim.start(m, VICTIM, exp);
    let victim_start = m.clock(VICTIM);
    let mut samples = Vec::new();
    let mut timings = Vec::new();
    let max_samples = exp.bit_len() * 40 + 4_000;
    while m.state(VICTIM) == smack_uarch::ThreadState::Running && samples.len() < max_samples {
        let at = m.clock(ATTACKER);
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        prober.wait(m, wait_cycles).map_err(|e| e.to_string())?;
        ev.probe_first_into(m, &mut prober, cfg.kind, cfg.probe_ways, &mut timings)
            .map_err(|e| e.to_string())?;
        let active = timings.iter().any(|t| !cal.is_hit(*t));
        let min_timing = *timings.iter().min().expect("nonempty ways");
        samples.push(ActivitySample { at, min_timing, active });
    }
    let victim_cycles = m.clock(VICTIM) - victim_start;
    Ok(RsaTrace { samples, victim_cycles })
}

/// Raw multiply-event sample indices (burst starts — one burst per
/// multiplication; see [`crate::decode`]).
pub fn events_from_samples(samples: &[ActivitySample]) -> Vec<usize> {
    let actives: Vec<bool> = samples.iter().map(|s| s.active).collect();
    crate::decode::burst_starts(&actives)
}

/// Decode a trace into exponent bits (MSB-first).
///
/// Each multiplication is one activity burst (the victim's `mul_n` keeps
/// executing its line for the whole operation — see [`crate::decode`]).
/// Between two set bits with `z` zero bits in between, the victim runs
/// one multiply plus `z + 1` squares, so consecutive burst starts are
/// `z + 2` operations apart: `zeros = round(gap / unit) - 2`.
pub fn decode_trace(trace: &RsaTrace, nbits: usize) -> Vec<bool> {
    let actives: Vec<bool> = samples_to_actives(&trace.samples);
    let Some((bursts, unit)) = crate::decode::extract_bursts(&actives) else {
        return vec![false; nbits];
    };
    let mut bits = Vec::with_capacity(nbits);
    bits.push(true); // the MSB is always set and always multiplies
    for ops in crate::decode::ops_between_bursts(&bursts, unit) {
        let zeros = (ops as usize).saturating_sub(2);
        bits.extend(std::iter::repeat_n(false, zeros.min(nbits)));
        bits.push(true);
    }
    bits.truncate(nbits);
    while bits.len() < nbits {
        bits.push(false);
    }
    bits
}

fn samples_to_actives(samples: &[ActivitySample]) -> Vec<bool> {
    samples.iter().map(|s| s.active).collect()
}

/// Fraction of `truth`'s bits (MSB-first) matching `decoded`.
pub fn score_bits(decoded: &[bool], truth: &Bignum) -> f64 {
    let nbits = truth.bit_len();
    if nbits == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for i in 0..nbits {
        let truth_bit = truth.bit(nbits - 1 - i); // MSB-first
        if decoded.get(i).copied().unwrap_or(false) == truth_bit {
            correct += 1;
        }
    }
    correct as f64 / nbits as f64
}

/// Alignment-tolerant recovery score: the decoded and true bit strings are
/// compared as run-length sequences under a longest-common-subsequence
/// alignment, so a single ±1 error in one zero-run costs only that run
/// instead of desynchronizing every later position (how partial key
/// recovery is scored in practice — a solver consumes runs, not absolute
/// positions). Excess decoded runs are discounted precision-style.
pub fn score_bits_aligned(decoded: &[bool], truth: &Bignum) -> f64 {
    let nbits = truth.bit_len();
    if nbits == 0 {
        return 0.0;
    }
    let truth_bits: Vec<bool> = (0..nbits).map(|i| truth.bit(nbits - 1 - i)).collect();
    let d_runs = to_runs(decoded);
    let t_runs = to_runs(&truth_bits);
    if t_runs.is_empty() {
        return 0.0;
    }
    // Aligned runs of the same alternation parity credit the bits they
    // share: a run decoded one too long/short still recovered the
    // overlapping bits, so each landmark pair earns `min(d, t)`. The
    // alignment itself is the shared [`align_runs`] DP that majority
    // voting anchors on.
    let recovered: u32 =
        align_runs(&t_runs, &d_runs).iter().map(|(t, d_len)| t_runs[*t].min(*d_len)).sum();
    let recall = recovered as f64 / nbits as f64;
    let precision_factor =
        if d_runs.len() > t_runs.len() { t_runs.len() as f64 / d_runs.len() as f64 } else { 1.0 };
    recall * precision_factor
}

/// Majority-vote combination of several decoded traces.
///
/// Bit errors in a single trace are mostly ±1 errors in individual
/// zero-run lengths, which *shift* all later positions — so positional
/// voting alone degrades after the first disagreement. Instead, traces are
/// combined at the level of shared burst landmarks: every trace's
/// run-length sequence is *aligned* to a reference trace (the same
/// weighted longest-common-subsequence alignment [`score_bits_aligned`]
/// scores with), and each reference run takes the median of the lengths
/// aligned to it. A trace that missed or hallucinated a multiply event
/// still votes on every landmark it shares with the reference, instead of
/// being discarded for having the wrong run *count* (which is what made
/// voting plateau below the paper's 10-trace 70% on noisier probe
/// classes). Positional voting remains the fallback for fewer than three
/// traces or structureless decodes.
///
/// Cost: one [`align_runs`] per distinct decode, not one per trace
/// (repeated traces mostly decode alike), and traces that decode to the
/// reference's own runs align without a table.
pub fn majority_vote(decodes: &[Vec<bool>], nbits: usize) -> Vec<bool> {
    if decodes.len() >= 3 {
        if let Some(bits) = landmark_vote(decodes, nbits) {
            return bits;
        }
    }
    (0..nbits)
        .map(|i| {
            let ones = decodes.iter().filter(|d| d.get(i).copied().unwrap_or(false)).count();
            2 * ones > decodes.len()
        })
        .collect()
}

/// Landmark-anchored run voting (see [`majority_vote`]): pick the trace
/// whose run count is the median as the reference, align every other
/// trace's runs to it, and take the per-landmark median length. Each
/// distinct run sequence is aligned once, however many traces decoded it.
fn landmark_vote(decodes: &[Vec<bool>], nbits: usize) -> Option<Vec<bool>> {
    let runs: Vec<Vec<u32>> = decodes.iter().map(|d| to_runs(d)).collect();
    // Reference: the trace with the median run count (ties to the earlier
    // trace, keeping the choice deterministic).
    let mut by_len: Vec<usize> = (0..runs.len()).collect();
    by_len.sort_by_key(|i| (runs[*i].len(), *i));
    let ref_idx = by_len[by_len.len() / 2];
    let reference = &runs[ref_idx];
    if reference.is_empty() {
        return None;
    }
    // Each landmark starts with the reference's own vote. Every other
    // trace votes the lengths its alignment pairs; traces with the same
    // runs share one alignment, which votes once per trace.
    let mut votes: Vec<Vec<u32>> = reference.iter().map(|len| vec![*len]).collect();
    let mut distinct: Vec<(&[u32], usize)> = Vec::new();
    for (t, r) in runs.iter().enumerate() {
        if t == ref_idx {
            continue;
        }
        match distinct.iter_mut().find(|(seen, _)| *seen == r.as_slice()) {
            Some((_, traces)) => *traces += 1,
            None => distinct.push((r, 1)),
        }
    }
    for (r, traces) in distinct {
        for (landmark, len) in align_runs(reference, r) {
            votes[landmark].extend(std::iter::repeat_n(len, traces));
        }
    }
    let mut bits = Vec::with_capacity(nbits);
    let mut ones = true;
    for vals in &mut votes {
        vals.sort_unstable();
        let len = vals[vals.len() / 2];
        for _ in 0..len {
            bits.push(ones);
        }
        ones = !ones;
    }
    bits.truncate(nbits);
    while bits.len() < nbits {
        bits.push(false);
    }
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Scenario, Sessions};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use smack_uarch::MicroArch;

    /// Majority-vote recovery after each of `traces` traces (seeds 1000,
    /// 1001, ...), the Figure 5 campaign on one renewed session.
    fn vote_rates(exp: &Bignum, cfg: &RsaAttackConfig, traces: u64) -> Vec<f64> {
        let victim = build_victim(cfg);
        let sessions = Sessions::new();
        let mut session =
            sessions.session(&Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise));
        let mut decodes = Vec::new();
        let mut rates = Vec::new();
        for seed in 1000..1000 + traces {
            session.renew(seed);
            let trace = collect_trace_in(&mut session, &victim, exp, cfg).expect("trace collects");
            decodes.push(decode_trace(&trace, exp.bit_len()));
            rates.push(score_bits(&majority_vote(&decodes, exp.bit_len()), exp));
        }
        rates
    }

    fn quiet_cfg(kind: ProbeKind) -> RsaAttackConfig {
        RsaAttackConfig {
            kind,
            wait_cycles: 100,
            wait_jitter: 0,
            probe_ways: 1,
            noise: NoiseConfig::quiet(),
            operand_bits: 2048,
        }
    }

    #[test]
    fn single_trace_recovers_paper_level_bits() {
        // The paper's Figure 5 reports ~63% single-trace recovery for
        // Prime+iFlush; quiet simulation should land in that band or above.
        let mut rng = SmallRng::seed_from_u64(31);
        let exp = Bignum::random_bits(&mut rng, 192);
        let cfg = quiet_cfg(ProbeKind::Flush);
        let victim = build_victim(&cfg);
        let sessions = Sessions::new();
        let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(1);
        let trace = collect_trace_in(&mut sessions.session(&scenario), &victim, &exp, &cfg)
            .expect("trace collects");
        let decoded = decode_trace(&trace, exp.bit_len());
        let rate = score_bits(&decoded, &exp);
        assert!(rate > 0.5, "quiet single-trace recovery {rate}");
        // The victim was slowed by the machine-clear storm, as §7 describes.
        assert!(trace.victim_cycles > 0);
    }

    #[test]
    fn majority_voting_does_not_degrade() {
        // The paper reaches 70% with ~10 traces; our simulated traces have
        // partially systematic errors (the same exposure-window multiply
        // misses recur), so voting plateaus: an error every trace makes wins
        // every vote. The combination must stay in the single-trace band and
        // not degrade.
        let mut rng = SmallRng::seed_from_u64(32);
        let exp = Bignum::random_bits(&mut rng, 160);
        let cfg = RsaAttackConfig::new(ProbeKind::Flush);
        let rates = vote_rates(&exp, &cfg, 8);
        let first = rates[0];
        let best = rates.iter().cloned().fold(0.0f64, f64::max);
        assert!(first > 0.45, "single-trace band: {first}");
        assert!(best >= first - 0.03, "voting must not degrade: {rates:?}");
    }

    #[test]
    fn event_extraction_merges_consecutive_actives() {
        let mk = |active: &[bool]| -> Vec<ActivitySample> {
            active
                .iter()
                .enumerate()
                .map(|(i, a)| ActivitySample { at: i as u64, min_timing: 0, active: *a })
                .collect()
        };
        let ev = events_from_samples(&mk(&[false, true, true, false, false, true, false]));
        assert_eq!(ev, vec![1, 5]);
        let ev = events_from_samples(&mk(&[true, false, true, true]));
        assert_eq!(ev, vec![0, 2]);
        assert!(events_from_samples(&mk(&[false, false])).is_empty());
    }

    #[test]
    fn score_bits_exact_on_perfect_decode() {
        let exp = Bignum::from_hex("b5"); // 10110101
        let decoded = vec![true, false, true, true, false, true, false, true];
        assert!((score_bits(&decoded, &exp) - 1.0).abs() < 1e-12);
        let flipped = vec![true, true, true, true, false, true, false, true];
        assert!((score_bits(&flipped, &exp) - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn aligned_score_prefers_shared_bits_over_pair_count() {
        // truth 10111 (runs [1,1,3]) vs decoded 111010 (runs [3,1,1,1]):
        // the single truth-r3/decoded-r1 pair shares 3 bits and must beat
        // the two-pair alignment sharing only 2 — a many-small-pairs
        // alignment must never outrank a fewer-bigger-pairs one.
        let truth = Bignum::from_hex("17"); // 10111
        let decoded = vec![true, true, true, false, true, false];
        let want = (3.0 / 5.0) * (3.0 / 4.0); // recall * precision factor
        assert!((score_bits_aligned(&decoded, &truth) - want).abs() < 1e-12);
    }

    #[test]
    fn landmark_vote_outvotes_disjoint_run_errors() {
        // truth: 1 000 1 00 1 0000 1  (runs [1,3,1,2,1,4,1], 13 bits).
        let truth_runs = [1usize, 3, 1, 2, 1, 4, 1];
        let bits_of = |runs: &[usize]| -> Vec<bool> {
            let mut bits = Vec::new();
            let mut ones = true;
            for r in runs {
                bits.extend(std::iter::repeat_n(ones, *r));
                ones = !ones;
            }
            bits.truncate(13);
            while bits.len() < 13 {
                bits.push(false);
            }
            bits
        };
        let truth = bits_of(&truth_runs);
        // t1 over-counts the first zero run, t2 under-counts the second —
        // each error *shifts* every later position, so positional voting
        // is wrong for most of the tail; aligned landmarks still carry a
        // 2-of-3 majority per run.
        let t1 = bits_of(&[1, 4, 1, 2, 1, 4, 1]);
        let t2 = bits_of(&[1, 3, 1, 1, 1, 4, 1]);
        let t3 = truth.clone();
        let combined = majority_vote(&[t1, t2, t3], 13);
        assert_eq!(combined, truth);
    }

    #[test]
    fn majority_vote_fixes_local_errors() {
        let truth = vec![true, false, true, true];
        let t1 = vec![true, false, true, true];
        let t2 = vec![true, true, true, true]; // one error
        let t3 = vec![true, false, true, false]; // a different error
        let combined = majority_vote(&[t1, t2, t3], 4);
        assert_eq!(combined, truth);
    }

    /// [`landmark_vote`] as it was before deduplication, aligning every
    /// trace to the reference: the oracle for the one-alignment-per-
    /// distinct-decode vote.
    fn landmark_vote_every_trace(decodes: &[Vec<bool>], nbits: usize) -> Option<Vec<bool>> {
        let runs: Vec<Vec<u32>> = decodes.iter().map(|d| to_runs(d)).collect();
        let mut by_len: Vec<usize> = (0..runs.len()).collect();
        by_len.sort_by_key(|i| (runs[*i].len(), *i));
        let ref_idx = by_len[by_len.len() / 2];
        let reference = &runs[ref_idx];
        if reference.is_empty() {
            return None;
        }
        let mut votes: Vec<Vec<u32>> = reference.iter().map(|len| vec![*len]).collect();
        for (t, r) in runs.iter().enumerate() {
            if t == ref_idx {
                continue;
            }
            for (landmark, len) in align_runs(reference, r) {
                votes[landmark].push(len);
            }
        }
        let mut bits = Vec::with_capacity(nbits);
        let mut ones = true;
        for vals in &mut votes {
            vals.sort_unstable();
            let len = vals[vals.len() / 2];
            for _ in 0..len {
                bits.push(ones);
            }
            ones = !ones;
        }
        bits.truncate(nbits);
        while bits.len() < nbits {
            bits.push(false);
        }
        Some(bits)
    }

    /// The bits of alternating `runs` (ones first), cut or zero-padded to
    /// `nbits` like a decode.
    fn bits_from_runs(runs: &[u32], nbits: usize) -> Vec<bool> {
        let mut bits = Vec::new();
        let mut ones = true;
        for r in runs {
            bits.extend(std::iter::repeat_n(ones, *r as usize));
            ones = !ones;
        }
        bits.resize(nbits, false);
        bits
    }

    /// Vote 25 decodes, `copies[k]` of them decoding to `sequences[k]`,
    /// in twenty shuffled orders, deduplicated and aligning every trace.
    fn assert_dedup_vote_matches(
        rng: &mut SmallRng,
        sequences: &[Vec<u32>; 3],
        copies: [usize; 3],
    ) {
        assert_eq!(copies.iter().sum::<usize>(), 25);
        let nbits = sequences.iter().map(|s| s.iter().sum::<u32>()).max().unwrap() as usize;
        let mut decodes: Vec<Vec<bool>> = sequences
            .iter()
            .zip(copies)
            .flat_map(|(s, c)| std::iter::repeat_n(bits_from_runs(s, nbits), c))
            .collect();
        for _ in 0..20 {
            decodes.shuffle(rng);
            let want = landmark_vote_every_trace(&decodes, nbits).expect("runs exist");
            assert_eq!(majority_vote(&decodes, nbits), want);
            assert_eq!(landmark_vote(&decodes, nbits), Some(want));
        }
    }

    #[test]
    fn deduplicated_vote_matches_aligning_every_trace() {
        let mut rng = SmallRng::seed_from_u64(34);
        for _ in 0..10 {
            let base: Vec<u32> =
                (0..120).map(|i| rng.gen_range(1..=if i % 2 == 0 { 2 } else { 5 })).collect();
            // One run off by one; one spurious multiply splitting a zero run.
            let mut off_by_one = base.clone();
            off_by_one[rng.gen_range(0..60usize) * 2 + 1] += 1;
            let mut split = base.clone();
            let k = rng.gen_range(0..60usize) * 2 + 1;
            split.splice(k..k, [1, 1]);
            let sequences = [base, off_by_one, split];
            // The reference's own sequence repeats: most traces decode
            // alike, the rest spread over the other two.
            assert_dedup_vote_matches(&mut rng, &sequences, [17, 5, 3]);
            // `base` and `off_by_one` tie on run count and hold the median,
            // so trace order among the tied traces picks the reference.
            assert_dedup_vote_matches(&mut rng, &sequences, [10, 10, 5]);
            assert_dedup_vote_matches(&mut rng, &sequences, [5, 8, 12]);
        }
    }

    #[test]
    fn fewer_than_three_traces_vote_by_position() {
        // Two decodes that disagree on run structure: a bit is one only
        // where both traces read one.
        let t1 = bits_from_runs(&[1, 3, 2, 1, 1], 8);
        let t2 = bits_from_runs(&[2, 1, 1, 2, 2], 8);
        let both: Vec<bool> = t1.iter().zip(&t2).map(|(a, b)| *a && *b).collect();
        assert_eq!(majority_vote(&[t1.clone(), t2], 8), both);
        assert_eq!(majority_vote(std::slice::from_ref(&t1), 8), t1);
    }

    #[test]
    fn noisy_traces_improve_with_more_votes() {
        let mut rng = SmallRng::seed_from_u64(33);
        let exp = Bignum::random_bits(&mut rng, 128);
        let cfg = RsaAttackConfig {
            noise: NoiseConfig::noisy(),
            ..RsaAttackConfig::new(ProbeKind::Store)
        };
        let rates = vote_rates(&exp, &cfg, 7);
        assert!(!rates.is_empty());
        let first = rates[0];
        let best = rates.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            best >= first - 0.02,
            "voting should not degrade recovery: first {first}, best {best}"
        );
    }
}
