//! Hardware performance counters.
//!
//! One unified event enumeration covers the Intel and AMD events that
//! SMaCk's reverse engineering (§4.2) and detection tool (§6.1) rely on.
//! Events specific to one vendor simply stay at zero on the other, exactly
//! like programming a raw event code the PMU does not implement.

use std::fmt;

/// A performance event, named after the vendor event it models.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum PerfEvent {
    // ---- architectural / common ----------------------------------------
    /// Instructions retired.
    InstRetired,
    /// Conditional branches retired (`BR_INST_RETIRED.ALL_BRANCHES`).
    BrInstRetired,
    /// Mispredicted branches retired (`BR_MISP_RETIRED.ALL_BRANCHES`).
    BrMispRetired,
    /// L1 instruction cache misses.
    L1iMisses,
    /// L2 misses (either side).
    L2Misses,
    /// LLC references.
    LlcReferences,
    /// LLC misses.
    LlcMisses,
    /// iTLB misses causing a page walk.
    ItlbMisses,
    /// dTLB misses causing a page walk.
    DtlbMisses,

    // ---- Intel ----------------------------------------------------------
    /// `MACHINE_CLEARS.COUNT` — machine clears of any type.
    MachineClearsCount,
    /// `MACHINE_CLEARS.SMC` — clears attributed to self-modifying code.
    /// Note the hardware quirk reproduced from the paper: `clflushopt` and
    /// `clwb` bump this counter twice per conflict.
    MachineClearsSmc,
    /// `CYCLE_ACTIVITY.STALLS_TOTAL` — total execution stall cycles.
    CycleActivityStallsTotal,
    /// `FRONTEND_RETIRED.IDQ_4_BUBBLES` — cycles the front-end delivered no
    /// µops.
    FrontendIdq4Bubbles,
    /// `INT_MISC.CLEAR_RESTEER_CYCLES` — issue-stall cycles after a clear
    /// while the front-end resteers.
    IntMiscClearResteerCycles,
    /// `PARTIAL_RAT_STALLS.SCOREBOARD` — issue-pipeline stalls due to
    /// serializing operations.
    PartialRatStallsScoreboard,

    // ---- AMD ------------------------------------------------------------
    /// `INSTRUCTION_PIPE_STALL.BACK_PRESSURE`.
    AmdPipeStallBackPressure,
    /// `INSTRUCTION_CACHE_LINES_INVALIDATED.FILL_INVALIDATED`.
    AmdIcLinesInvalidated,
    /// `CYCLES_WITH_FILL_PENDING_FROM_L2.L2_FILL_BUSY`.
    AmdL2FillBusy,

    // ---- simulator-internal ----------------------------------------------
    /// Never incremented: the simulator models the timing of SMC
    /// write-backs but never rewrites loaded code, so there is nothing to
    /// recompile. Kept only because the benchmark's per-layer table still
    /// reads it (as `engine.patch_recompiles`, always 0).
    SimPatchRecompiles,
    /// Probe sequences and calls that entered the fused tier
    /// ([`run_probes`], [`run_calls`]), one per probe or call. Not a
    /// hardware event: together with [`SimProbeFallback`] it makes the
    /// fused-vs-per-step rate observable in tests and the benchmark.
    ///
    /// [`run_probes`]: crate::machine::Machine::run_probes
    /// [`run_calls`]: crate::machine::Machine::run_calls
    /// [`SimProbeFallback`]: PerfEvent::SimProbeFallback
    SimProbeFastPath,
    /// Probe sequences and calls that the fused tier refused (guards
    /// tripped: fetch log enabled, speculation live, a callee in the
    /// batch not shaped `nop*; ret`, or fusion disabled) and that fell
    /// back to per-step execution, one per probe or call of the refused
    /// batch.
    SimProbeFallback,
    /// Instructions a co-running sibling retired in closed form through
    /// whole turns of a counted delay loop, without stepping them (they
    /// are counted in [`InstRetired`] too). Not a hardware event: it makes
    /// the loop tier's reach observable in tests and the benchmark.
    ///
    /// [`InstRetired`]: PerfEvent::InstRetired
    SimLoopRetired,
    /// Fused call and probe batches ([`run_calls`], [`run_probes`]) that
    /// ran with no inner sibling catch-up, the sibling's counted delay
    /// loop carried to the batch's end in one closed form. Not a hardware
    /// event: it makes the batch carry's reach observable in tests.
    ///
    /// [`run_calls`]: crate::machine::Machine::run_calls
    /// [`run_probes`]: crate::machine::Machine::run_probes
    SimBatchCarried,
    /// SMC machine clears, one per clear on the thread whose instruction
    /// caused it, on either vendor. Not a hardware event: Intel's
    /// `MACHINE_CLEARS.SMC` double-counts some probe classes and AMD
    /// exposes no clear count, so this is the vendor-independent count
    /// an attack reads to tell whether its leak rode on machine clears
    /// (ISpectre's Table 3 ● vs ◐ split).
    SimSmcClears,
}

impl PerfEvent {
    /// Every modeled event, in a stable order.
    pub const ALL: [PerfEvent; 24] = [
        PerfEvent::InstRetired,
        PerfEvent::BrInstRetired,
        PerfEvent::BrMispRetired,
        PerfEvent::L1iMisses,
        PerfEvent::L2Misses,
        PerfEvent::LlcReferences,
        PerfEvent::LlcMisses,
        PerfEvent::ItlbMisses,
        PerfEvent::DtlbMisses,
        PerfEvent::MachineClearsCount,
        PerfEvent::MachineClearsSmc,
        PerfEvent::CycleActivityStallsTotal,
        PerfEvent::FrontendIdq4Bubbles,
        PerfEvent::IntMiscClearResteerCycles,
        PerfEvent::PartialRatStallsScoreboard,
        PerfEvent::AmdPipeStallBackPressure,
        PerfEvent::AmdIcLinesInvalidated,
        PerfEvent::AmdL2FillBusy,
        PerfEvent::SimPatchRecompiles,
        PerfEvent::SimProbeFastPath,
        PerfEvent::SimProbeFallback,
        PerfEvent::SimLoopRetired,
        PerfEvent::SimBatchCarried,
        PerfEvent::SimSmcClears,
    ];

    fn slot(self) -> usize {
        // Declaration order matches `ALL` (locked by the `all_slots_unique`
        // test), so the discriminant is the slot — counter bumps on the hot
        // step path must not scan a lookup table.
        self as usize
    }

    /// The vendor event-name string, as PAPI/perf would show it.
    pub fn name(self) -> &'static str {
        match self {
            PerfEvent::InstRetired => "INST_RETIRED.ANY",
            PerfEvent::BrInstRetired => "BR_INST_RETIRED.ALL_BRANCHES",
            PerfEvent::BrMispRetired => "BR_MISP_RETIRED.ALL_BRANCHES",
            PerfEvent::L1iMisses => "ICACHE_64B.IFTAG_MISS",
            PerfEvent::L2Misses => "L2_RQSTS.MISS",
            PerfEvent::LlcReferences => "LONGEST_LAT_CACHE.REFERENCE",
            PerfEvent::LlcMisses => "LONGEST_LAT_CACHE.MISS",
            PerfEvent::ItlbMisses => "ITLB_MISSES.WALK_COMPLETED",
            PerfEvent::DtlbMisses => "DTLB_LOAD_MISSES.WALK_COMPLETED",
            PerfEvent::MachineClearsCount => "MACHINE_CLEARS.COUNT",
            PerfEvent::MachineClearsSmc => "MACHINE_CLEARS.SMC",
            PerfEvent::CycleActivityStallsTotal => "CYCLE_ACTIVITY.STALLS_TOTAL",
            PerfEvent::FrontendIdq4Bubbles => "FRONTEND_RETIRED.IDQ_4_BUBBLES",
            PerfEvent::IntMiscClearResteerCycles => "INT_MISC.CLEAR_RESTEER_CYCLES",
            PerfEvent::PartialRatStallsScoreboard => "PARTIAL_RAT_STALLS.SCOREBOARD",
            PerfEvent::AmdPipeStallBackPressure => "INSTRUCTION_PIPE_STALL.BACK_PRESSURE",
            PerfEvent::AmdIcLinesInvalidated => {
                "INSTRUCTION_CACHE_LINES_INVALIDATED.FILL_INVALIDATED"
            }
            PerfEvent::AmdL2FillBusy => "CYCLES_WITH_FILL_PENDING_FROM_L2.L2_FILL_BUSY",
            PerfEvent::SimPatchRecompiles => "SIM.PATCH_RECOMPILES",
            PerfEvent::SimProbeFastPath => "SIM.PROBE_FAST_PATH",
            PerfEvent::SimProbeFallback => "SIM.PROBE_FALLBACK",
            PerfEvent::SimLoopRetired => "SIM.LOOP_RETIRED",
            PerfEvent::SimBatchCarried => "SIM.BATCH_CARRIED",
            PerfEvent::SimSmcClears => "SIM.SMC_CLEARS",
        }
    }

    /// Whether this is a simulator-internal `SIM.*` event: engine-tier
    /// bookkeeping rather than modeled hardware, so it stays out of
    /// detection features, result CSVs and output digests, and is the
    /// only kind of counter allowed to differ between interpreter tiers.
    pub fn is_sim(self) -> bool {
        matches!(
            self,
            PerfEvent::SimPatchRecompiles
                | PerfEvent::SimProbeFastPath
                | PerfEvent::SimProbeFallback
                | PerfEvent::SimLoopRetired
                | PerfEvent::SimBatchCarried
                | PerfEvent::SimSmcClears
        )
    }
}

impl fmt::Display for PerfEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A read-only snapshot of every counter, for delta computation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CounterSnapshot {
    values: [u64; PerfEvent::ALL.len()],
}

impl CounterSnapshot {
    /// Value of `event` at snapshot time.
    pub fn read(&self, event: PerfEvent) -> u64 {
        self.values[event.slot()]
    }
}

/// A bank of always-on performance counters.
///
/// ```
/// use smack_uarch::{CounterBank, PerfEvent};
/// let mut b = CounterBank::new();
/// let before = b.snapshot();
/// b.add(PerfEvent::MachineClearsSmc, 2);
/// assert_eq!(b.delta(&before, PerfEvent::MachineClearsSmc), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CounterBank {
    values: [u64; PerfEvent::ALL.len()],
}

impl CounterBank {
    /// New bank with all counters at zero.
    pub fn new() -> CounterBank {
        CounterBank::default()
    }

    /// Increment `event` by `n`.
    ///
    /// The fused call and idle tiers lean on this being a plain
    /// saturating-free addition: one `add(InstRetired, n)` for a fused
    /// routine or idle window must equal `n` per-step bumps (the
    /// `batched_add_equals_single_adds` test locks that contract).
    #[inline]
    pub fn add(&mut self, event: PerfEvent, n: u64) {
        self.values[event.slot()] += n;
    }

    /// Current value of `event`.
    pub fn read(&self, event: PerfEvent) -> u64 {
        self.values[event.slot()]
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot { values: self.values }
    }

    /// `event` delta since `before`.
    pub fn delta(&self, before: &CounterSnapshot, event: PerfEvent) -> u64 {
        self.read(event) - before.read(event)
    }

    /// Reset every counter to zero.
    pub fn reset(&mut self) {
        self.values = [0; PerfEvent::ALL.len()];
    }

    /// Merge another bank into this one (used for core-wide totals).
    pub fn accumulate(&mut self, other: &CounterBank) {
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read() {
        let mut b = CounterBank::new();
        b.add(PerfEvent::MachineClearsCount, 3);
        assert_eq!(b.read(PerfEvent::MachineClearsCount), 3);
        assert_eq!(b.read(PerfEvent::MachineClearsSmc), 0);
    }

    #[test]
    fn snapshot_deltas() {
        let mut b = CounterBank::new();
        b.add(PerfEvent::LlcMisses, 5);
        let snap = b.snapshot();
        b.add(PerfEvent::LlcMisses, 7);
        assert_eq!(b.delta(&snap, PerfEvent::LlcMisses), 7);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = CounterBank::new();
        let mut b = CounterBank::new();
        a.add(PerfEvent::InstRetired, 10);
        b.add(PerfEvent::InstRetired, 32);
        a.accumulate(&b);
        assert_eq!(a.read(PerfEvent::InstRetired), 42);
    }

    #[test]
    fn batched_add_equals_single_adds() {
        // The fused call path retires a whole `nop*; ret` routine with one add();
        // snapshots and deltas taken around it must be indistinguishable
        // from per-step retirement.
        let mut batched = CounterBank::new();
        let mut stepped = CounterBank::new();
        let (b0, s0) = (batched.snapshot(), stepped.snapshot());
        batched.add(PerfEvent::InstRetired, 1000);
        for _ in 0..1000 {
            stepped.add(PerfEvent::InstRetired, 1);
        }
        assert_eq!(batched.read(PerfEvent::InstRetired), stepped.read(PerfEvent::InstRetired));
        assert_eq!(
            batched.delta(&b0, PerfEvent::InstRetired),
            stepped.delta(&s0, PerfEvent::InstRetired)
        );
        assert_eq!(batched.snapshot(), stepped.snapshot());
    }

    #[test]
    fn all_slots_unique() {
        for (i, e) in PerfEvent::ALL.iter().enumerate() {
            assert_eq!(e.slot(), i);
        }
    }

    #[test]
    fn sim_events_are_the_sim_prefixed_ones() {
        for e in PerfEvent::ALL {
            assert_eq!(e.is_sim(), e.name().starts_with("SIM."), "{e:?}");
        }
    }

    #[test]
    fn names_are_nonempty_and_unique() {
        let mut names: Vec<_> = PerfEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(names.iter().all(|n| !n.is_empty()));
    }
}
