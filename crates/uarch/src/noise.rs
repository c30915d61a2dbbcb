//! Measurement noise: timing jitter and spurious cache evictions.
//!
//! Real measurements in the paper are noisy because of system activity,
//! interrupts and contention; the reproduction injects seeded, configurable
//! noise so that (a) experiments remain deterministic and (b) the *relative*
//! robustness of SMaCk vs. classic Prime+Probe emerges mechanistically: a
//! ±few-cycle jitter drowns Mastik's 1–2 cycle L1i/L2 margin but is
//! irrelevant against SMaCk's several-hundred-cycle machine-clear margin.
//!
//! ## Exact eviction schedule
//!
//! Spurious evictions follow a deterministic rate schedule: with `r`
//! evictions per kcycle, the `k`-th eviction fires the cycle the cumulative
//! elapsed time `C` first satisfies `⌊C·r/1000⌋ ≥ k`. The schedule is kept
//! in *integer* arithmetic — the configured `f64` rate is decomposed into an
//! exact rational `num/den` (every finite float is a dyadic rational), and
//! progress is tracked as `(cycles, emitted)` — so [`NoiseSource::evictions_for`]
//! is exactly invariant under partitioning: any way of slicing an interval
//! into sub-intervals yields the same eviction count at every boundary.
//! That invariance is what lets the engine's fused probe, call and wait
//! tiers retire several instructions' cycles in one call and still match
//! per-instruction execution bit for bit, and it also makes
//! [`NoiseSource::cycles_to_next_eviction`] exact, which the loop tier's
//! guard uses to prove no eviction lands among the counted-loop turns it
//! retires in closed form (plus any idle cycles of the waiting thread that
//! the same catch-up spans).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Noise model parameters.
#[derive(Copy, Clone, Debug)]
pub struct NoiseConfig {
    /// Maximum absolute timing jitter added to each timed operation, in
    /// cycles (uniform in `[-jitter, +jitter]`).
    pub timing_jitter: u32,
    /// Expected number of spurious L1i evictions per 1,000 cycles,
    /// modeling unrelated co-resident activity.
    pub evictions_per_kcycle: f64,
}

impl NoiseConfig {
    /// No noise at all (fully deterministic timing).
    pub fn quiet() -> NoiseConfig {
        NoiseConfig { timing_jitter: 0, evictions_per_kcycle: 0.0 }
    }

    /// Noise level representative of an otherwise-idle machine.
    pub fn realistic() -> NoiseConfig {
        NoiseConfig { timing_jitter: 4, evictions_per_kcycle: 0.002 }
    }

    /// A loaded machine: heavier jitter and more cache churn.
    pub fn noisy() -> NoiseConfig {
        NoiseConfig { timing_jitter: 12, evictions_per_kcycle: 0.02 }
    }
}

impl NoiseConfig {
    /// A digest of the configuration, used alongside
    /// [`crate::UarchProfile::fingerprint`] to key the in-process machine
    /// pools and calibration caches (the struct holds an `f64`, so it
    /// cannot implement `Eq`/`Hash` directly).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.timing_jitter.hash(&mut h);
        self.evictions_per_kcycle.to_bits().hash(&mut h);
        h.finish()
    }
}

impl Default for NoiseConfig {
    fn default() -> NoiseConfig {
        NoiseConfig::quiet()
    }
}

/// The eviction rate as an exact rational: `num / den` evictions per cycle.
///
/// A finite positive `f64` is `m · 2^e` for a 53-bit mantissa `m`, so the
/// per-kcycle rate converts exactly to `m · 2^e / 1000` per cycle. Shift
/// clamps (applied only to absurd magnitudes far outside any physical
/// eviction rate) keep every intermediate product inside `u128`.
fn rate_ratio(evictions_per_kcycle: f64) -> Option<(u128, u128)> {
    if !(evictions_per_kcycle.is_finite() && evictions_per_kcycle > 0.0) {
        return None;
    }
    let bits = evictions_per_kcycle.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if biased == 0 { (frac, -1074i64) } else { (frac | (1 << 52), biased - 1075) };
    if m == 0 {
        return None;
    }
    let mut num = u128::from(m);
    let mut den = 1000u128;
    if e >= 0 {
        num <<= e.min(10) as u32;
    } else {
        den <<= (-e).min(96) as u32;
    }
    Some((num, den))
}

/// A uniform draw from `[-j, j]` that consumes the RNG stream exactly as
/// `gen_range(-j..=j)` does — one `next_u64` per try, rejecting tries above
/// the zone — without the rand shim's two 64-bit divisions per draw: the
/// zone and the reciprocal are computed once per jitter setting.
#[derive(Copy, Clone, Debug)]
struct JitterDraw {
    /// Maximum absolute jitter `j`.
    j: u64,
    /// Largest accepted raw draw (the shim's rejection zone).
    zone: u64,
    /// `⌈2¹²⁸ / (2j + 1)⌉`, the multiplier of Lemire's direct remainder.
    recip: u128,
}

impl JitterDraw {
    fn new(j: u32) -> JitterDraw {
        let (j, bound) = (u64::from(j), 2 * u64::from(j) + 1);
        JitterDraw {
            j,
            zone: u64::MAX - (u64::MAX % bound) - 1,
            // Wraps to 0 only at `j == 0`, where every remainder is 0.
            recip: (u128::MAX / u128::from(bound)).wrapping_add(1),
        }
    }

    /// `v % (2j + 1)` by direct computation ("Faster remainder by direct
    /// computation", Lemire, Kaser and Kurz 2019): the high 128 bits of
    /// the fraction `recip · v mod 2¹²⁸` times the divisor. 128 fraction
    /// bits cover every 64-bit `v` and divisor, so this is exact.
    #[inline(always)]
    fn rem(&self, v: u64) -> u64 {
        let frac = self.recip.wrapping_mul(u128::from(v));
        let bound = u128::from(2 * self.j + 1);
        let high = (frac >> 64) * bound;
        let low = (u128::from(frac as u64) * bound) >> 64;
        ((high + low) >> 64) as u64
    }

    /// One draw: what `rng.gen_range(-j..=j)` would return.
    #[inline(always)]
    fn sample(&self, rng: &mut SmallRng) -> i64 {
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return self.rem(v) as i64 - self.j as i64;
            }
        }
    }
}

/// Stateful noise source: seeded RNG plus the configuration.
///
/// The eviction schedule is kept as a *fully reduced remainder* plus the
/// cycles not yet folded into it: `acc + pending·num` always equals
/// `C·num − E·den` where `C` is the cumulative cycles fed in and
/// `E = ⌊C·num/den⌋` the evictions emitted, with `0 ≤ acc < den` and
/// `acc + pending·num < den`. The steady-state
/// [`NoiseSource::evictions_for`] call is then one compare, one
/// subtraction and one `u64` addition — no `u128` arithmetic, no
/// division — because the cached `until_next` distance tells it up front
/// that no eviction can fire; the pending cycles fold into the remainder
/// (and divisions happen) only when an eviction actually does fire (or at
/// (re)configuration), which at realistic rates is once per tens of
/// thousands of simulated cycles.
#[derive(Clone, Debug)]
pub struct NoiseSource {
    cfg: NoiseConfig,
    rng: SmallRng,
    /// The jitter draw of `cfg.timing_jitter`.
    jitter: JitterDraw,
    /// Eviction rate as an exact rational (`None` when the rate is zero).
    rate: Option<(u128, u128)>,
    /// Reduced schedule remainder as of the last crossing; invariant
    /// `0 ≤ acc < den`.
    acc: u128,
    /// Cycles fed in since the last crossing, not yet folded into `acc`
    /// (always fewer than the distance to the next crossing from `acc`).
    pending: u64,
    /// Cycles that may still elapse before the next eviction fires (a
    /// lower bound clamped to `u64::MAX`; exact whenever it fits).
    until_next: u64,
}

/// `ceil((den − acc) / num)` clamped to `u64` — the exact distance to the
/// next schedule crossing.
fn distance_to_next(num: u128, den: u128, acc: u128) -> u64 {
    (den - acc).div_ceil(num).min(u128::from(u64::MAX)) as u64
}

impl NoiseSource {
    /// Create a noise source from a config and seed.
    pub fn new(cfg: NoiseConfig, seed: u64) -> NoiseSource {
        let rate = rate_ratio(cfg.evictions_per_kcycle);
        NoiseSource {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            jitter: JitterDraw::new(cfg.timing_jitter),
            rate,
            acc: 0,
            pending: 0,
            until_next: rate.map_or(u64::MAX, |(num, den)| distance_to_next(num, den, 0)),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> NoiseConfig {
        self.cfg
    }

    /// Replace the configuration (keeps RNG state). A change to the
    /// eviction *rate* restarts the eviction schedule from zero; setting a
    /// config with the same rate keeps accumulated schedule progress, so
    /// re-applying the current config is a no-op (experiments set noise
    /// once at setup, where both behaviors coincide).
    pub fn set_config(&mut self, cfg: NoiseConfig) {
        if cfg.evictions_per_kcycle.to_bits() != self.cfg.evictions_per_kcycle.to_bits() {
            self.rate = rate_ratio(cfg.evictions_per_kcycle);
            self.acc = 0;
            self.pending = 0;
            self.until_next =
                self.rate.map_or(u64::MAX, |(num, den)| distance_to_next(num, den, 0));
        }
        self.jitter = JitterDraw::new(cfg.timing_jitter);
        self.cfg = cfg;
    }

    /// Jitter to add to a timed operation (cycles, may be negative).
    #[inline]
    pub fn jitter(&mut self) -> i64 {
        if self.cfg.timing_jitter == 0 {
            return 0;
        }
        self.jitter.sample(&mut self.rng)
    }

    /// Advance noise time by `cycles`; returns how many spurious L1i
    /// evictions should be injected for that interval.
    ///
    /// Exactly burst-size-invariant: for any split `cycles = a + b`,
    /// `evictions_for(a) + evictions_for(b) == evictions_for(a + b)`, with
    /// the same schedule afterwards (every later draw and
    /// [`NoiseSource::cycles_to_next_eviction`] agree) — see the struct
    /// docs.
    #[inline(always)]
    pub fn evictions_for(&mut self, cycles: u64) -> u32 {
        if cycles < self.until_next {
            // No crossing: `acc + (pending + cycles)·num < den` by
            // definition of `until_next`, so the cycles only join the
            // pending count. This is the per-retire hot path.
            self.until_next -= cycles;
            self.pending += cycles;
            return 0;
        }
        self.cross(cycles)
    }

    /// [`NoiseSource::evictions_for`] at a (possible) schedule crossing:
    /// fold the pending cycles into the remainder and reduce it.
    #[cold]
    #[inline(never)]
    fn cross(&mut self, cycles: u64) -> u32 {
        let Some((num, den)) = self.rate else {
            // No schedule: `until_next` only bounds the pending count.
            self.pending = 0;
            self.until_next = u64::MAX;
            return 0;
        };
        self.acc += (u128::from(self.pending) + u128::from(cycles)) * num;
        self.pending = 0;
        // At least one eviction (unless `until_next` was clamped): reduce
        // the remainder. Small quotients — the overwhelmingly common case —
        // reduce by repeated subtraction; only pathological jumps divide.
        let mut fresh: u64 = 0;
        if self.acc < den << 4 {
            while self.acc >= den {
                self.acc -= den;
                fresh += 1;
            }
        } else {
            let q = self.acc / den;
            self.acc -= q * den;
            fresh = q.min(u128::from(u64::MAX)) as u64;
        }
        self.until_next = distance_to_next(num, den, self.acc);
        fresh.min(u64::from(u32::MAX)) as u32
    }

    /// Cycles that can still elapse before the *next* scheduled eviction
    /// fires: feeding strictly fewer than this many cycles through
    /// [`NoiseSource::evictions_for`] emits no eviction; feeding this many
    /// (or more) emits at least one. Returns `u64::MAX` when the eviction
    /// rate is zero (or the true distance exceeds `u64`). One field read —
    /// the loop tier consults it before every closed-form run.
    #[inline]
    pub fn cycles_to_next_eviction(&self) -> u64 {
        if self.rate.is_none() {
            return u64::MAX;
        }
        self.until_next
    }

    /// A uniformly random L1i set index for eviction injection.
    pub fn random_set(&mut self, sets: usize) -> usize {
        self.rng.gen_range(0..sets)
    }
}

#[cfg(test)]
impl NoiseSource {
    /// This source as every later call sees it: the configuration, the RNG
    /// stream and the eviction schedule with its pending cycles folded in.
    /// How many cycles wait unfolded is invisible to later calls, and it
    /// differs between retiring cycles one instruction at a time and in one
    /// batch across a crossing.
    pub(crate) fn observable(&self) -> String {
        let folded = self.rate.map_or(0, |(num, _)| self.acc + u128::from(self.pending) * num);
        format!("{:?} {:?} {:?} {folded} {}", self.cfg, self.rng, self.rate, self.until_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_silent() {
        let mut n = NoiseSource::new(NoiseConfig::quiet(), 1);
        for _ in 0..100 {
            assert_eq!(n.jitter(), 0);
        }
        assert_eq!(n.evictions_for(1_000_000), 0);
        assert_eq!(n.cycles_to_next_eviction(), u64::MAX);
    }

    #[test]
    fn jitter_is_bounded() {
        let mut n =
            NoiseSource::new(NoiseConfig { timing_jitter: 5, evictions_per_kcycle: 0.0 }, 7);
        for _ in 0..1000 {
            let j = n.jitter();
            assert!((-5..=5).contains(&j));
        }
    }

    #[test]
    fn eviction_rate_accumulates() {
        let mut n =
            NoiseSource::new(NoiseConfig { timing_jitter: 0, evictions_per_kcycle: 1.0 }, 3);
        // 10k cycles at 1 eviction per kcycle = exactly 10.
        assert_eq!(n.evictions_for(10_000), 10);
    }

    /// The division-free draw returns what `gen_range(-j..=j)` returns
    /// and leaves the RNG stream where it leaves it, draw by draw. A
    /// rejected try is too rare to meet in a stream (about one raw draw
    /// in 2^55 at j = 255), so the zone is checked against the shim's
    /// formula and the remainder against `%` over raw values directly.
    #[test]
    fn jitter_matches_gen_range() {
        for j in [1u32, 4, 8, 255] {
            let cfg = NoiseConfig { timing_jitter: j, evictions_per_kcycle: 0.0 };
            for seed in 0..200u64 {
                let mut n = NoiseSource::new(cfg, seed);
                let mut reference = SmallRng::seed_from_u64(seed);
                let j = i64::from(j);
                for i in 0..500 {
                    assert_eq!(
                        n.jitter(),
                        reference.gen_range(-j..=j),
                        "j {j} seed {seed} draw {i}"
                    );
                }
                assert_eq!(n.rng.next_u64(), reference.next_u64(), "j {j} seed {seed}: stream");
            }
        }
        for j in [1u32, 2, 3, 4, 8, 12, 255, 1 << 20, u32::MAX] {
            let draw = JitterDraw::new(j);
            let bound = 2 * u64::from(j) + 1;
            assert_eq!(draw.zone, u64::MAX - (u64::MAX % bound) - 1);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                for v in [x, x >> 17, u64::MAX - (x >> 40), draw.zone - (x & 0xff)] {
                    assert_eq!(draw.rem(v), v % bound, "j {j} v {v}");
                }
            }
        }
    }

    /// Setting a new jitter bound switches the draw with it.
    #[test]
    fn set_config_switches_the_jitter_draw() {
        let mut n = NoiseSource::new(NoiseConfig::quiet(), 3);
        let mut reference = SmallRng::seed_from_u64(3);
        n.set_config(NoiseConfig { timing_jitter: 12, evictions_per_kcycle: 0.0 });
        for _ in 0..100 {
            assert_eq!(n.jitter(), reference.gen_range(-12i64..=12));
        }
        n.set_config(NoiseConfig { timing_jitter: 4, evictions_per_kcycle: 0.0 });
        for _ in 0..100 {
            assert_eq!(n.jitter(), reference.gen_range(-4i64..=4));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = NoiseConfig { timing_jitter: 8, evictions_per_kcycle: 0.0 };
        let mut a = NoiseSource::new(cfg, 42);
        let mut b = NoiseSource::new(cfg, 42);
        for _ in 0..64 {
            assert_eq!(a.jitter(), b.jitter());
        }
    }

    /// The schedule is a pure function of cumulative cycles: slicing time
    /// into per-cycle steps, odd chunks, or one giant interval must emit
    /// the same eviction count at every common boundary.
    #[test]
    fn evictions_are_partition_invariant() {
        let rates = [0.002, 0.02, 0.37, 1.0, 5.0, 123.456];
        let partitions: &[&[u64]] = &[
            &[1; 64],
            &[7, 1, 19, 3, 3, 64, 1, 1, 500, 2],
            &[601],
            &[100, 100, 100, 100, 100, 100, 1],
        ];
        for rate in rates {
            let cfg = NoiseConfig { timing_jitter: 0, evictions_per_kcycle: rate };
            // Per-cycle oracle: cumulative evictions after every cycle.
            let mut oracle = NoiseSource::new(cfg, 9);
            let mut cumulative_at = vec![0u64; 2048];
            let mut cum = 0u64;
            for (c, slot) in cumulative_at.iter_mut().enumerate() {
                cum += u64::from(oracle.evictions_for(1));
                *slot = cum;
                let _ = c;
            }
            for chunks in partitions {
                let mut n = NoiseSource::new(cfg, 9);
                let (mut t, mut got) = (0usize, 0u64);
                for chunk in *chunks {
                    got += u64::from(n.evictions_for(*chunk));
                    t += *chunk as usize;
                    assert_eq!(
                        got,
                        cumulative_at[t - 1],
                        "rate {rate}: chunked schedule diverged at cycle {t}"
                    );
                }
                assert_eq!(n.cycles_to_next_eviction(), {
                    let mut probe = NoiseSource::new(cfg, 9);
                    probe.evictions_for(t as u64);
                    probe.cycles_to_next_eviction()
                });
            }
        }
    }

    /// `cycles_to_next_eviction` is the exact boundary: one cycle short
    /// emits nothing, the boundary itself emits at least one.
    #[test]
    fn next_eviction_boundary_is_exact() {
        for rate in [0.002, 0.02, 0.37, 1.0, 5.0] {
            let cfg = NoiseConfig { timing_jitter: 0, evictions_per_kcycle: rate };
            let mut n = NoiseSource::new(cfg, 4);
            // Advance into the middle of the schedule first.
            n.evictions_for(1234);
            for _ in 0..16 {
                let d = n.cycles_to_next_eviction();
                assert!(d > 0);
                assert_eq!(n.evictions_for(d - 1), 0, "rate {rate}: fired early");
                assert!(n.evictions_for(1) >= 1, "rate {rate}: boundary missed");
            }
        }
    }

    /// The eager formulation the pending-cycles fast path replaced: every
    /// call folds its cycles into the reduced remainder at once.
    struct EagerSchedule {
        num: u128,
        den: u128,
        acc: u128,
    }

    impl EagerSchedule {
        fn evictions_for(&mut self, cycles: u64) -> u32 {
            self.acc += u128::from(cycles) * self.num;
            let q = self.acc / self.den;
            self.acc -= q * self.den;
            q.min(u128::from(u32::MAX)) as u32
        }

        fn cycles_to_next_eviction(&self) -> u64 {
            distance_to_next(self.num, self.den, self.acc)
        }
    }

    /// Deferring the fold of non-crossing cycles until a crossing emits
    /// exactly the eager schedule's evictions, call by call, and reports
    /// the same distance to the next one — across chunks that stop one
    /// short of, land on, and jump past crossings, and rates whose
    /// distance clamps to `u64::MAX`.
    #[test]
    fn pending_cycles_match_eager_remainder() {
        for rate in [1e-15, 0.002, 0.02, 0.37, 1.0, 5.0, 123.456] {
            let cfg = NoiseConfig { timing_jitter: 0, evictions_per_kcycle: rate };
            let (num, den) = rate_ratio(rate).expect("positive rate");
            let mut eager = EagerSchedule { num, den, acc: 0 };
            let mut lazy = NoiseSource::new(cfg, 5);
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for i in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let next = lazy.cycles_to_next_eviction();
                let cycles = match i % 5 {
                    0 => next.saturating_sub(1),
                    1 => next.min(1 << 40),
                    2 => x % 7,
                    3 => x % 5000,
                    _ => x % (1 << 30),
                };
                assert_eq!(
                    lazy.evictions_for(cycles),
                    eager.evictions_for(cycles),
                    "rate {rate}: step {i} ({cycles} cycles)"
                );
                assert_eq!(lazy.cycles_to_next_eviction(), eager.cycles_to_next_eviction());
            }
        }
    }

    /// Config changes restart the schedule only when the rate changes.
    #[test]
    fn set_config_keeps_schedule_for_same_rate() {
        let cfg = NoiseConfig { timing_jitter: 0, evictions_per_kcycle: 0.37 };
        let mut a = NoiseSource::new(cfg, 11);
        let mut b = NoiseSource::new(cfg, 11);
        a.evictions_for(777);
        b.evictions_for(777);
        a.set_config(NoiseConfig { timing_jitter: 9, evictions_per_kcycle: 0.37 });
        assert_eq!(a.cycles_to_next_eviction(), b.cycles_to_next_eviction());
        a.set_config(NoiseConfig { timing_jitter: 9, evictions_per_kcycle: 5.0 });
        let mut fresh =
            NoiseSource::new(NoiseConfig { timing_jitter: 9, evictions_per_kcycle: 5.0 }, 0);
        assert_eq!(a.cycles_to_next_eviction(), fresh.cycles_to_next_eviction());
        assert_eq!(a.evictions_for(10_000), fresh.evictions_for(10_000));
    }
}
