//! # smack-mastik
//!
//! The comparison baseline: a Mastik-style classic L1 instruction-cache
//! Prime+Probe monitor (Yarom's Mastik toolkit, as used in the paper's
//! Figure 1 bottom row and Table 2).
//!
//! The monitor primes an L1i set by *executing* eviction lines and probes
//! by executing-and-timing them again. An evicted way refetches from L2 —
//! but the front-end hides nearly all of the L2 latency, leaving a 1–2
//! cycle margin (paper §4.1: "the L1i cache incurs an average of 34
//! cycles, and the L2 cache takes an average of 35 cycles"). Against even
//! mild timing jitter that margin drowns, which is exactly why SMaCk's
//! machine-clear margins (hundreds of cycles) matter.
//!
//! Because per-sample classification is unreliable, the monitor scores
//! each round by its *miss count* and flags activity adaptively against a
//! running baseline — the "threshold selected by matching the expected
//! number of cache misses" methodology the paper describes for its Mastik
//! comparison in §5.3.

use smack::oracle::EvictionSet;
use smack::probe::Prober;
use smack_uarch::{Machine, ProbeKind, StepError, ThreadId};

/// A classic L1i Prime+Probe monitor over one cache set.
#[derive(Debug)]
pub struct MastikMonitor {
    evset: EvictionSet,
    prober: Prober,
    threshold: u64,
    wait_cycles: u64,
    /// Per-way probe timings of the latest round, reused across rounds.
    timings: Vec<u64>,
    // Running statistics of the per-round miss-count score.
    count: f64,
    mean: f64,
    m2: f64,
}

impl MastikMonitor {
    /// Create a monitor for L1i set `set`, placing the eviction lines at
    /// `region_base`, and calibrate the per-way hit/miss threshold.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from calibration.
    pub fn new(
        machine: &mut Machine,
        tid: ThreadId,
        region_base: u64,
        set: usize,
        wait_cycles: u64,
    ) -> Result<MastikMonitor, StepError> {
        let evset = EvictionSet::for_machine(machine, region_base, set);
        evset.install(machine);
        for w in evset.ways() {
            machine.warm_tlb(tid, *w);
        }
        let mut prober = Prober::new(tid);
        // Calibrate: probe timings with all ways L1i-hot vs. one way
        // demoted to L2. The margin is tiny — that is the point.
        evset.prime(machine, &mut prober)?;
        let hot = evset.probe(machine, &mut prober, ProbeKind::Execute)?;
        let hot_mean = hot.iter().sum::<u64>() as f64 / hot.len() as f64;
        evset.prime(machine, &mut prober)?;
        // A victim fetch demotes the way to L2 (inclusive hierarchy), so
        // calibrate against exactly that state — the margin is 1-2 cycles.
        machine.place_line(evset.ways()[0], smack_uarch::Placement::L2);
        let cold = prober.measure(machine, ProbeKind::Execute, evset.ways()[0])?.cycles;
        let threshold = ((hot_mean + cold as f64) / 2.0).round() as u64;
        Ok(MastikMonitor {
            evset,
            prober,
            threshold,
            wait_cycles,
            timings: Vec::new(),
            count: 0.0,
            mean: 0.0,
            m2: 0.0,
        })
    }

    /// The calibrated per-way threshold (diagnostics).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The monitored set.
    pub fn set(&self) -> usize {
        self.evset.set()
    }

    /// One prime → wait → probe round; returns the raw miss count.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn sample_score(&mut self, machine: &mut Machine) -> Result<u32, StepError> {
        self.evset.prime(machine, &mut self.prober)?;
        self.prober.wait(machine, self.wait_cycles)?;
        let ways = self.evset.ways().len();
        self.evset.probe_first_into(
            machine,
            &mut self.prober,
            ProbeKind::Execute,
            ways,
            &mut self.timings,
        )?;
        Ok(self.timings.iter().filter(|t| **t > self.threshold).count() as u32)
    }

    /// One monitoring round with adaptive activity detection: the round is
    /// "active" when its miss count exceeds the running baseline by more
    /// than 1.5 standard deviations.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn sample(&mut self, machine: &mut Machine) -> Result<bool, StepError> {
        let score = self.sample_score(machine)? as f64;
        // Welford's online mean/variance for the baseline.
        self.count += 1.0;
        let delta = score - self.mean;
        self.mean += delta / self.count;
        self.m2 += delta * (score - self.mean);
        if self.count < 8.0 {
            return Ok(false); // still building the baseline
        }
        let var = self.m2 / (self.count - 1.0);
        let sigma = var.sqrt().max(0.25);
        Ok(score > self.mean + 1.5 * sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smack_uarch::{MicroArch, NoiseConfig};

    const T0: ThreadId = ThreadId::T0;

    #[test]
    fn threshold_margin_is_tiny() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        let mon = MastikMonitor::new(&mut m, T0, 0x10_0000, 9, 500).unwrap();
        // The L1i/L2 execute margin is 1-2 cycles; the threshold sits just
        // above the hot timing.
        assert!(mon.threshold() > 20 && mon.threshold() < 60, "{}", mon.threshold());
    }

    #[test]
    fn detects_eviction_without_noise() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        let mut mon = MastikMonitor::new(&mut m, T0, 0x10_0000, 9, 500).unwrap();
        // Build a baseline of quiet rounds.
        for _ in 0..10 {
            assert_eq!(mon.sample_score(&mut m).unwrap(), 0, "quiet machine, no misses");
        }
        // A victim-like eviction produces a nonzero score.
        mon.evset.prime(&mut m, &mut Prober::new(T0)).unwrap();
        m.place_line(mon.evset.ways()[2], smack_uarch::Placement::L2);
        let t = mon.evset.probe(&mut m, &mut Prober::new(T0), ProbeKind::Execute).unwrap();
        let misses = t.iter().filter(|x| **x > mon.threshold()).count();
        assert_eq!(misses, 1);
    }

    #[test]
    fn jitter_drowns_the_margin() {
        // With realistic noise the per-way classification becomes
        // unreliable — the core weakness the paper exploits for its
        // comparison (Table 2's Mastik rows).
        let mut m =
            Machine::with_noise(MicroArch::CascadeLake.profile(), NoiseConfig::realistic(), 3);
        let mut mon = MastikMonitor::new(&mut m, T0, 0x10_0000, 9, 500).unwrap();
        let mut nonzero = 0;
        for _ in 0..40 {
            if mon.sample_score(&mut m).unwrap() > 0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 4, "jitter should produce spurious misses, got {nonzero}/40");
    }

    #[test]
    fn adaptive_sampler_needs_a_baseline() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        let mut mon = MastikMonitor::new(&mut m, T0, 0x10_0000, 9, 500).unwrap();
        for _ in 0..7 {
            assert!(!mon.sample(&mut m).unwrap(), "baseline rounds are never active");
        }
    }
}
