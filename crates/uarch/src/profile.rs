//! Microarchitecture profiles.
//!
//! Ten profiles — eight Intel generations and two AMD parts — matching the
//! machines evaluated in SMaCk. Each profile carries:
//!
//! * the cache hierarchy geometry and latencies,
//! * the **SMC behavior matrix** (paper Table 3): for each of the nine
//!   probe instruction classes, whether it triggers the SMC machine clear,
//!   leaks without SMC, has no usable effect, or is unsupported,
//! * the **probe cost tables** calibrated against Figure 1 (cycles per
//!   probe class and hierarchy level, plus the machine-clear surcharge),
//! * the **machine-clear penalty breakdown** from the Figure 2 reverse
//!   engineering (front-end bubbles, resteer cycles, back-end serialization,
//!   and the 235-cycle sibling-thread stall), and
//! * timer properties (`rdtsc` cost and resolution — 21 cycles on AMD,
//!   which is exactly why the paper's AMD covert channels are noisier).

use crate::hierarchy::{HierarchyConfig, Level};

/// CPU vendor.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Vendor {
    /// Intel.
    Intel,
    /// AMD.
    Amd,
}

/// The nine probe instruction classes of SMaCk Listing 2.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ProbeKind {
    /// `mov (%rdi), %rax` — plain data load.
    Load,
    /// `clflush (%rdi)`.
    Flush,
    /// `clflushopt (%rdi)`.
    FlushOpt,
    /// `movb $0x90, (%rdi)` — store.
    Store,
    /// `lock incb (%rdi)`.
    Lock,
    /// `prefetcht0 (%rdi)`.
    Prefetch,
    /// `prefetchnta (%rdi)`.
    PrefetchNta,
    /// `call *%rdi` — execute the target line.
    Execute,
    /// `clwb (%rdi)`.
    Clwb,
}

impl ProbeKind {
    /// All nine classes, in Listing 2 order.
    pub const ALL: [ProbeKind; 9] = [
        ProbeKind::Load,
        ProbeKind::Flush,
        ProbeKind::FlushOpt,
        ProbeKind::Store,
        ProbeKind::Lock,
        ProbeKind::Prefetch,
        ProbeKind::PrefetchNta,
        ProbeKind::Execute,
        ProbeKind::Clwb,
    ];

    /// Stable index (0..9).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("kind is in ALL")
    }

    /// Short human-readable name, as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::Load => "load",
            ProbeKind::Flush => "clflush",
            ProbeKind::FlushOpt => "clflushopt",
            ProbeKind::Store => "store",
            ProbeKind::Lock => "lock+inc",
            ProbeKind::Prefetch => "prefetcht0",
            ProbeKind::PrefetchNta => "prefetchnta",
            ProbeKind::Execute => "execute",
            ProbeKind::Clwb => "clwb",
        }
    }

    /// Whether this class semantically *writes* the target line (and can
    /// therefore never be used on read/execute-only shared pages, as the
    /// paper notes for Flush+iReload).
    pub fn writes_target(self) -> bool {
        matches!(self, ProbeKind::Store | ProbeKind::Lock)
    }
}

impl std::fmt::Display for ProbeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a probe class behaves on a given microarchitecture (paper Table 3).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SmcBehavior {
    /// ● — triggers the SMC machine clear; hit = slow.
    Triggers,
    /// ◐ — no machine clear, but plain timing still leaks; hit = fast.
    LeaksWithoutSmc,
    /// # — no machine clear and no reliable timing difference.
    NoEffect,
    /// × — the instruction does not exist on this part.
    Unsupported,
}

impl SmcBehavior {
    /// The symbol used in the paper's Table 3.
    pub fn symbol(self) -> &'static str {
        match self {
            SmcBehavior::Triggers => "●",
            SmcBehavior::LeaksWithoutSmc => "◐",
            SmcBehavior::NoEffect => "#",
            SmcBehavior::Unsupported => "×",
        }
    }
}

/// The per-probe-class SMC behavior matrix for one microarchitecture.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SmcMatrix {
    cells: [SmcBehavior; 9],
}

impl SmcMatrix {
    /// Build from an array in [`ProbeKind::ALL`] order.
    pub fn new(cells: [SmcBehavior; 9]) -> SmcMatrix {
        SmcMatrix { cells }
    }

    /// Behavior of `kind` on this microarchitecture.
    pub fn get(&self, kind: ProbeKind) -> SmcBehavior {
        self.cells[kind.index()]
    }
}

/// Calibrated cycle costs for one probe class.
///
/// A probe's measured cost is `base + level_extra(residency)`, or
/// `base + smc_extra` when the SMC detection unit fires (machine-clear
/// latency dominates the hierarchy latency in that case).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ProbeCosts {
    /// Fixed issue cost.
    pub base: u32,
    /// Extra cycles when the target is in L1d.
    pub l1d: u32,
    /// Extra cycles when the target is in L2.
    pub l2: u32,
    /// Extra cycles when the target is in the LLC.
    pub llc: u32,
    /// Extra cycles when the target is only in DRAM.
    pub dram: u32,
    /// Surcharge when the probe triggers an SMC machine clear.
    pub smc_extra: u32,
}

impl ProbeCosts {
    /// Extra cycles for a hit at `level` (no SMC case).
    pub fn level_extra(&self, level: Level) -> u32 {
        match level {
            // A line resident in L1i but not L1d is serviced from L2 on the
            // data side (inclusive hierarchy).
            Level::L1i | Level::L2 => self.l2,
            Level::L1d => self.l1d,
            Level::Llc => self.llc,
            Level::Dram => self.dram,
        }
    }
}

/// Table of [`ProbeCosts`] for all nine probe classes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ProbeCostTable {
    cells: [ProbeCosts; 9],
}

impl ProbeCostTable {
    /// Build from an array in [`ProbeKind::ALL`] order.
    pub fn new(cells: [ProbeCosts; 9]) -> ProbeCostTable {
        ProbeCostTable { cells }
    }

    /// Costs for one probe class.
    pub fn get(&self, kind: ProbeKind) -> ProbeCosts {
        self.cells[kind.index()]
    }

    /// Replace one probe class's costs (ablation studies).
    pub fn set(&mut self, kind: ProbeKind, costs: ProbeCosts) {
        self.cells[kind.index()] = costs;
    }
}

/// Machine-clear penalty breakdown (paper §4.2 / Figure 2).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClearPenalties {
    /// Front-end bubble cycles (`FRONTEND_RETIRED.IDQ_4_BUBBLES` ≈ 30).
    pub frontend_bubbles: u32,
    /// Resteer cycles before the back-end issues again
    /// (`INT_MISC.CLEAR_RESTEER_CYCLES` ≈ 35–40).
    pub resteer: u32,
    /// Stall imposed on the *sibling* SMT thread per clear (≈ 235 cycles,
    /// §4.2 "Outcome").
    pub sibling_stall: u32,
    /// Total stall cycles per clear, per probe class
    /// (`CYCLE_ACTIVITY.STALLS_TOTAL`, up to ~580 for lock/clwb).
    pub stalls_total: [u32; 9],
    /// Back-end serialization cycles per clear, per probe class
    /// (`PARTIAL_RAT_STALLS.SCOREBOARD`, ≈ 200 for store).
    pub scoreboard: [u32; 9],
    /// AMD `INSTRUCTION_PIPE_STALL.BACK_PRESSURE` cycles per clear.
    pub amd_back_pressure: u32,
    /// AMD `CYCLES_WITH_FILL_PENDING_FROM_L2.L2_FILL_BUSY` cycles per clear
    /// for store/lock (the classes that refill the invalidated line).
    pub amd_l2_fill_busy: u32,
}

/// Speculative-execution parameters.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SpecConfig {
    /// Maximum wrong-path instructions before a forced squash (ROB bound).
    pub window_instrs: u32,
    /// Cycles lost on a branch-misprediction squash.
    pub mispredict_penalty: u32,
}

/// The ten microarchitectures evaluated in the paper (Table 3).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MicroArch {
    /// Intel Westmere EP.
    WestmereEp,
    /// Intel Sandy Bridge.
    SandyBridge,
    /// Intel Ivy Bridge.
    IvyBridge,
    /// Intel Broadwell.
    Broadwell,
    /// Intel Ice Lake.
    IceLake,
    /// Intel Cascade Lake (the paper's main characterization platform).
    CascadeLake,
    /// Intel Comet Lake.
    CometLake,
    /// AMD Ryzen 5.
    AmdRyzen5,
    /// AMD EPYC 7232P.
    AmdEpyc7232P,
    /// Intel Tiger Lake (the paper's RSA/SRP case-study platform).
    TigerLake,
}

impl MicroArch {
    /// All ten microarchitectures, in Table 3 column order.
    pub const ALL: [MicroArch; 10] = [
        MicroArch::WestmereEp,
        MicroArch::SandyBridge,
        MicroArch::IvyBridge,
        MicroArch::Broadwell,
        MicroArch::IceLake,
        MicroArch::CascadeLake,
        MicroArch::CometLake,
        MicroArch::AmdRyzen5,
        MicroArch::AmdEpyc7232P,
        MicroArch::TigerLake,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MicroArch::WestmereEp => "Westmere EP",
            MicroArch::SandyBridge => "Sandy Bridge",
            MicroArch::IvyBridge => "Ivy Bridge",
            MicroArch::Broadwell => "Broadwell",
            MicroArch::IceLake => "Ice Lake",
            MicroArch::CascadeLake => "Cascade Lake",
            MicroArch::CometLake => "Comet Lake",
            MicroArch::AmdRyzen5 => "AMD Ryzen 5",
            MicroArch::AmdEpyc7232P => "AMD EPYC 7232P",
            MicroArch::TigerLake => "Tiger Lake",
        }
    }

    /// Vendor of this part.
    pub fn vendor(self) -> Vendor {
        match self {
            MicroArch::AmdRyzen5 | MicroArch::AmdEpyc7232P => Vendor::Amd,
            _ => Vendor::Intel,
        }
    }

    /// Build the full profile for this microarchitecture.
    pub fn profile(self) -> UarchProfile {
        build_profile(self)
    }
}

impl std::fmt::Display for MicroArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything the simulator needs to know about one microarchitecture.
#[derive(Clone, Debug)]
pub struct UarchProfile {
    /// Which part this is.
    pub arch: MicroArch,
    /// Vendor.
    pub vendor: Vendor,
    /// Nominal frequency, used to convert cycles to wall-clock time for
    /// bandwidth numbers.
    pub freq_ghz: f64,
    /// Cache hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// `rdtsc` reading granularity in cycles (1 on Intel, 21 on AMD).
    pub tsc_resolution: u32,
    /// Cycles consumed by executing `rdtsc`.
    pub rdtsc_cost: u32,
    /// Cycles consumed by `mfence` beyond draining outstanding operations.
    pub mfence_cost: u32,
    /// SMC behavior matrix (Table 3 row for this part).
    pub smc: SmcMatrix,
    /// Calibrated probe costs (Figure 1).
    pub probe_costs: ProbeCostTable,
    /// Machine-clear penalties (Figure 2).
    pub clear: ClearPenalties,
    /// Speculation parameters.
    pub spec: SpecConfig,
    /// iTLB entries.
    pub itlb_entries: usize,
    /// dTLB entries.
    pub dtlb_entries: usize,
    /// Page-walk latency in cycles.
    pub tlb_walk: u32,
}

impl UarchProfile {
    /// How much `MACHINE_CLEARS.SMC` increments per conflict for `kind`.
    ///
    /// Reproduces the counter quirk from §4.2: on Intel, `clflushopt` and
    /// `clwb` bump the SMC sub-counter twice per clear.
    pub fn smc_count_increment(&self, kind: ProbeKind) -> u64 {
        if self.vendor == Vendor::Intel && matches!(kind, ProbeKind::FlushOpt | ProbeKind::Clwb) {
            2
        } else {
            1
        }
    }

    /// Convert a cycle count to seconds at the nominal frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// A digest of every behavior-relevant field, used to key the
    /// in-process machine pools and calibration caches. Two profiles with
    /// the same fingerprint simulate identically; ablation-perturbed
    /// profiles (e.g. a tweaked `probe_costs` cell) get distinct
    /// fingerprints and therefore never share pooled machines or cached
    /// calibrations with the stock profile they were derived from. The
    /// value is stable within a build, not across toolchains: nothing
    /// stores it.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.arch.hash(&mut h);
        self.vendor.hash(&mut h);
        self.freq_ghz.to_bits().hash(&mut h);
        self.hierarchy.hash(&mut h);
        self.tsc_resolution.hash(&mut h);
        self.rdtsc_cost.hash(&mut h);
        self.mfence_cost.hash(&mut h);
        self.smc.hash(&mut h);
        self.probe_costs.hash(&mut h);
        self.clear.hash(&mut h);
        self.spec.hash(&mut h);
        self.itlb_entries.hash(&mut h);
        self.dtlb_entries.hash(&mut h);
        self.tlb_walk.hash(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// Profile data
// ---------------------------------------------------------------------------

use SmcBehavior::{LeaksWithoutSmc as L, NoEffect as N, Triggers as T, Unsupported as X};

fn matrix_for(arch: MicroArch) -> SmcMatrix {
    use MicroArch::*;
    // Order: Load, Flush, FlushOpt, Store, Lock, Prefetch, PrefetchNta,
    // Execute, Clwb — transcribed from paper Table 3.
    let cells = match arch {
        WestmereEp => [L, T, T, T, T, N, N, N, X],
        SandyBridge => [L, T, X, T, T, N, N, N, X],
        IvyBridge => [L, T, X, T, T, N, N, N, X],
        Broadwell => [L, T, T, T, T, T, N, N, X],
        IceLake => [L, T, T, T, T, N, N, N, X],
        CascadeLake => [L, T, T, T, T, T, L, N, T],
        CometLake => [L, T, T, T, T, T, L, N, N],
        AmdRyzen5 => [L, T, T, T, T, L, L, N, N],
        AmdEpyc7232P => [L, L, L, T, T, L, L, N, L],
        TigerLake => [L, T, T, T, T, N, N, N, T],
    };
    SmcMatrix::new(cells)
}

const fn pc(base: u32, l1d: u32, l2: u32, llc: u32, dram: u32, smc_extra: u32) -> ProbeCosts {
    ProbeCosts { base, l1d, l2, llc, dram, smc_extra }
}

/// A probe whose latency barely depends on where the line lives (async
/// hint semantics) — used for prefetch/clwb variants marked `#` in Table 3.
const fn flat(base: u32) -> ProbeCosts {
    pc(base, 2, 3, 4, 5, 0)
}

fn intel_costs(arch: MicroArch) -> ProbeCostTable {
    let prefetch = match matrix_for(arch).get(ProbeKind::Prefetch) {
        SmcBehavior::Triggers => pc(10, 3, 8, 20, 220, 370),
        _ => flat(10),
    };
    let prefetch_nta = match matrix_for(arch).get(ProbeKind::PrefetchNta) {
        SmcBehavior::LeaksWithoutSmc => pc(10, 3, 8, 20, 220, 0),
        _ => flat(10),
    };
    let clwb = match matrix_for(arch).get(ProbeKind::Clwb) {
        SmcBehavior::Triggers => pc(80, 30, 30, 30, 100, 200),
        _ => flat(80),
    };
    ProbeCostTable::new([
        pc(2, 4, 14, 50, 250, 0),     // Load: pure hierarchy latency
        pc(100, 80, 80, 80, 10, 240), // Flush: ~355 on L1i hit, ~200 on LLC
        pc(95, 75, 75, 75, 10, 235),  // FlushOpt
        pc(5, 1, 15, 75, 255, 275),   // Store: ~300 L1i, ~100 LLC, ~280 DRAM
        pc(25, 5, 15, 30, 230, 380),  // Lock: ~425 L1i, ~75 LLC, ~275 DRAM
        prefetch,
        prefetch_nta,
        pc(8, 0, 2, 25, 220, 0), // Execute: ifetch path (next-line prefetch hides L2)
        clwb,
    ])
}

fn amd_ryzen_costs() -> ProbeCostTable {
    ProbeCostTable::new([
        pc(2, 4, 14, 45, 230, 0),
        pc(90, 120, 120, 120, 220, 420), // Flush: L1i-LLC ≈ 300, L1i-DRAM ≈ 200
        pc(85, 115, 115, 115, 215, 415),
        pc(5, 2, 20, 120, 260, 270), // Store: L1i-LLC ≈ 150, L1i ≈ DRAM
        pc(30, 5, 30, 90, 250, 350), // Lock: every state observable
        pc(10, 3, 10, 25, 215, 0),   // Prefetch: leaks without SMC
        pc(10, 3, 10, 25, 215, 0),
        pc(8, 0, 2, 25, 215, 0),
        flat(80), // Clwb: not treated as SMC on Ryzen (§4.1)
    ])
}

fn amd_epyc_costs() -> ProbeCostTable {
    ProbeCostTable::new([
        pc(2, 4, 14, 45, 235, 0),
        pc(90, 30, 30, 30, 220, 0), // Flush: no machine clear, plain timing leak
        pc(85, 28, 28, 28, 215, 0),
        pc(5, 2, 20, 110, 255, 265),
        pc(30, 5, 30, 85, 245, 345),
        pc(10, 3, 10, 25, 210, 0),
        pc(10, 3, 10, 25, 210, 0),
        pc(8, 0, 2, 25, 210, 0),
        pc(80, 15, 20, 25, 140, 0), // Clwb: leaks without SMC on EPYC
    ])
}

fn intel_clear() -> ClearPenalties {
    // Indexed by ProbeKind::ALL order.
    ClearPenalties {
        frontend_bubbles: 30,
        resteer: 37,
        sibling_stall: 235,
        stalls_total: [0, 450, 440, 500, 580, 470, 0, 0, 560],
        scoreboard: [0, 150, 150, 200, 240, 170, 0, 0, 230],
        amd_back_pressure: 0,
        amd_l2_fill_busy: 0,
    }
}

fn amd_clear() -> ClearPenalties {
    ClearPenalties {
        frontend_bubbles: 25,
        resteer: 30,
        sibling_stall: 235,
        stalls_total: [0, 500, 490, 420, 520, 0, 0, 0, 0],
        scoreboard: [0, 0, 0, 0, 0, 0, 0, 0, 0],
        amd_back_pressure: 500,
        amd_l2_fill_busy: 480,
    }
}

fn build_profile(arch: MicroArch) -> UarchProfile {
    let vendor = arch.vendor();
    let freq_ghz = match arch {
        MicroArch::WestmereEp => 2.9,
        MicroArch::SandyBridge => 3.3,
        MicroArch::IvyBridge => 3.5,
        MicroArch::Broadwell => 3.4,
        MicroArch::IceLake => 3.9,
        MicroArch::CascadeLake => 3.6,
        MicroArch::CometLake => 4.1,
        MicroArch::AmdRyzen5 => 3.6,
        MicroArch::AmdEpyc7232P => 3.1,
        MicroArch::TigerLake => 4.2,
    };
    let probe_costs = match arch {
        MicroArch::AmdRyzen5 => amd_ryzen_costs(),
        MicroArch::AmdEpyc7232P => amd_epyc_costs(),
        _ => intel_costs(arch),
    };
    let (tsc_resolution, rdtsc_cost) = match vendor {
        Vendor::Intel => (1, 15),
        Vendor::Amd => (21, 28),
    };
    let clear = match vendor {
        Vendor::Intel => intel_clear(),
        Vendor::Amd => amd_clear(),
    };
    UarchProfile {
        arch,
        vendor,
        freq_ghz,
        hierarchy: HierarchyConfig::intel_like(),
        tsc_resolution,
        rdtsc_cost,
        mfence_cost: 5,
        smc: matrix_for(arch),
        probe_costs,
        clear,
        spec: SpecConfig { window_instrs: 64, mispredict_penalty: 17 },
        itlb_entries: 64,
        dtlb_entries: 64,
        tlb_walk: 100,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_spot_checks() {
        // Store and Lock trigger SMC everywhere (paper: "Both lock and
        // store instructions are successful ... in all x86
        // microarchitectures").
        for arch in MicroArch::ALL {
            let m = matrix_for(arch);
            assert_eq!(m.get(ProbeKind::Store), SmcBehavior::Triggers, "{arch}");
            assert_eq!(m.get(ProbeKind::Lock), SmcBehavior::Triggers, "{arch}");
            // Load leaks without SMC everywhere; Execute never leaks.
            assert_eq!(m.get(ProbeKind::Load), SmcBehavior::LeaksWithoutSmc, "{arch}");
            assert_eq!(m.get(ProbeKind::Execute), SmcBehavior::NoEffect, "{arch}");
        }
        // clflushopt missing on Sandy Bridge / Ivy Bridge.
        assert_eq!(
            MicroArch::SandyBridge.profile().smc.get(ProbeKind::FlushOpt),
            SmcBehavior::Unsupported
        );
        // clwb exists only on the newest parts.
        assert_eq!(
            MicroArch::Broadwell.profile().smc.get(ProbeKind::Clwb),
            SmcBehavior::Unsupported
        );
        assert_eq!(
            MicroArch::CascadeLake.profile().smc.get(ProbeKind::Clwb),
            SmcBehavior::Triggers
        );
        // EPYC: flush does not create SMC conflicts (AMD-SB-7024 machine).
        assert_eq!(
            MicroArch::AmdEpyc7232P.profile().smc.get(ProbeKind::Flush),
            SmcBehavior::LeaksWithoutSmc
        );
    }

    #[test]
    fn cascade_lake_figure1_magnitudes() {
        let p = MicroArch::CascadeLake.profile();
        let store = p.probe_costs.get(ProbeKind::Store);
        // L1i-resident store ≈ 300 cycles within the probe sequence,
        // ≈ 200 more than an LLC-resident store.
        let l1i_hit = store.base + store.smc_extra;
        let llc_hit = store.base + store.llc;
        assert!(l1i_hit > llc_hit + 150, "{l1i_hit} vs {llc_hit}");
        // Store DRAM within ~30 cycles of the L1i case (paper: ~20).
        let dram = store.base + store.dram;
        assert!(l1i_hit.abs_diff(dram) < 40);
        // Lock is the slowest conflict.
        let lock = p.probe_costs.get(ProbeKind::Lock);
        assert!(lock.base + lock.smc_extra > l1i_hit);
    }

    #[test]
    fn amd_quantization_is_coarse() {
        let ryzen = MicroArch::AmdRyzen5.profile();
        assert_eq!(ryzen.tsc_resolution, 21);
        let intel = MicroArch::CascadeLake.profile();
        assert_eq!(intel.tsc_resolution, 1);
    }

    #[test]
    fn smc_counter_quirk() {
        let p = MicroArch::CascadeLake.profile();
        assert_eq!(p.smc_count_increment(ProbeKind::FlushOpt), 2);
        assert_eq!(p.smc_count_increment(ProbeKind::Clwb), 2);
        assert_eq!(p.smc_count_increment(ProbeKind::Store), 1);
        let amd = MicroArch::AmdRyzen5.profile();
        assert_eq!(amd.smc_count_increment(ProbeKind::FlushOpt), 1);
    }

    #[test]
    fn all_profiles_build() {
        for arch in MicroArch::ALL {
            let p = arch.profile();
            assert!(p.freq_ghz > 1.0);
            assert_eq!(p.vendor, arch.vendor());
            // Sibling stall is the paper's 235-cycle slowdown.
            assert_eq!(p.clear.sibling_stall, 235);
        }
    }

    #[test]
    fn cycles_to_seconds() {
        let p = MicroArch::CascadeLake.profile();
        let s = p.cycles_to_seconds(3_600_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
