//! # smack-detection
//!
//! The paper's §6.1 countermeasure: dynamic detection of SMC-based attacks
//! from hardware performance counters.
//!
//! A system-wide agent samples core counters over fixed windows while
//! workloads run. Windows from the 20-workload benign suite are labelled 0;
//! windows collected while Prime+iProbe / Flush+iReload attack loops run
//! are labelled 1. A kNN (k = 3) classifies held-out windows, and the
//! experiment compares feature sets: the weak baselines from prior work
//! (branch-misprediction and LLC-miss counters, which barely react to an
//! L1i-resident attack) against the SMC-related counters
//! (`MACHINE_CLEARS.SMC` & friends), which separate almost perfectly —
//! except for false positives on the `amg`-like self-modifying benign
//! workload, exactly as the paper reports.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::calibrate::calibrate;
use smack::oracle::{EvictionSet, OraclePage};
use smack::probe::Prober;
use smack_ml::{train_test_split, BinaryConfusion, KnnClassifier, Sample};
use smack_uarch::{
    Addr, CounterBank, Machine, NoiseConfig, PerfEvent, ProbeKind, SmcBehavior, ThreadId,
};
use smack_victims::benign::BenignWorkload;

const MONITOR: ThreadId = ThreadId::T0;
const WORKER: ThreadId = ThreadId::T1;
const EVSET_BASE: u64 = 0x0a40_0000;
const SHARED_BASE: u64 = 0x0c40_0000;
const SCRATCH: u64 = 0x0d40_0000;
const BENIGN_CODE: u64 = 0x0500_0000;
const BENIGN_DATA: u64 = 0x0600_0000;

/// Which counters feed the classifier.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FeatureSet {
    /// `MACHINE_CLEARS.SMC` only — the paper's winning feature.
    MachineClearsSmc,
    /// `MACHINE_CLEARS.COUNT`.
    MachineClearsCount,
    /// `CYCLE_ACTIVITY.STALLS_TOTAL`.
    StallsTotal,
    /// `BR_MISP_RETIRED.ALL_BRANCHES` — prior work's Spectre detector.
    BranchMisp,
    /// LLC misses — prior work's cache-attack detector.
    LlcMisses,
    /// All SMC-related counters together.
    SmcCombined,
}

impl FeatureSet {
    /// Feature sets evaluated in the §6.1 comparison.
    pub const ALL: [FeatureSet; 6] = [
        FeatureSet::MachineClearsSmc,
        FeatureSet::MachineClearsCount,
        FeatureSet::StallsTotal,
        FeatureSet::BranchMisp,
        FeatureSet::LlcMisses,
        FeatureSet::SmcCombined,
    ];

    /// Display name (counter event names).
    pub fn name(self) -> &'static str {
        match self {
            FeatureSet::MachineClearsSmc => "machine_clears.smc",
            FeatureSet::MachineClearsCount => "machine_clears.count",
            FeatureSet::StallsTotal => "cycle_activity.stalls_total",
            FeatureSet::BranchMisp => "br_misp_retired.all_branches",
            FeatureSet::LlcMisses => "longest_lat_cache.miss",
            FeatureSet::SmcCombined => "smc-combined",
        }
    }

    /// Extract the feature vector from a counter-delta, normalized per
    /// 100k cycles.
    pub fn extract(self, delta: &CounterDelta) -> Vec<f64> {
        let n = |v: u64| v as f64 * 100_000.0 / delta.cycles.max(1) as f64;
        match self {
            FeatureSet::MachineClearsSmc => vec![n(delta.read(PerfEvent::MachineClearsSmc))],
            FeatureSet::MachineClearsCount => {
                vec![n(delta.read(PerfEvent::MachineClearsCount))]
            }
            FeatureSet::StallsTotal => {
                vec![n(delta.read(PerfEvent::CycleActivityStallsTotal))]
            }
            FeatureSet::BranchMisp => vec![n(delta.read(PerfEvent::BrMispRetired))],
            FeatureSet::LlcMisses => vec![n(delta.read(PerfEvent::LlcMisses))],
            FeatureSet::SmcCombined => vec![
                n(delta.read(PerfEvent::MachineClearsSmc)),
                n(delta.read(PerfEvent::MachineClearsCount)),
                n(delta.read(PerfEvent::CycleActivityStallsTotal)),
            ],
        }
    }
}

impl std::fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counter deltas over one sampling window.
#[derive(Clone, Debug)]
pub struct CounterDelta {
    /// Window length in cycles.
    pub cycles: u64,
    values: Vec<(PerfEvent, u64)>,
}

impl CounterDelta {
    fn from_banks(before: &CounterBank, after: &CounterBank, cycles: u64) -> CounterDelta {
        let values =
            PerfEvent::ALL.iter().map(|e| (*e, after.read(*e) - before.read(*e))).collect();
        CounterDelta { cycles, values }
    }

    /// Delta of one event over the window.
    pub fn read(&self, event: PerfEvent) -> u64 {
        self.values.iter().find(|(e, _)| *e == event).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// Detection experiment configuration.
#[derive(Copy, Clone, Debug)]
pub struct DetectionConfig {
    /// Sampling window length in cycles (models the paper's 100 ms
    /// resolution, scaled to simulation time).
    pub window_cycles: u64,
    /// Windows collected per workload run.
    pub windows_per_run: usize,
    /// Noise model.
    pub noise: NoiseConfig,
}

impl Default for DetectionConfig {
    fn default() -> DetectionConfig {
        DetectionConfig {
            window_cycles: 150_000,
            windows_per_run: 12,
            noise: NoiseConfig::realistic(),
        }
    }
}

/// Collect counter windows while a benign workload runs on the worker
/// thread and the monitor thread idles, on a caller-supplied machine in
/// its cold start state (e.g. one checked out from a session pool).
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn benign_windows_on(
    m: &mut Machine,
    workload: BenignWorkload,
    cfg: &DetectionConfig,
) -> Result<Vec<CounterDelta>, String> {
    let prog = workload.build(BENIGN_CODE, BENIGN_DATA);
    workload.stage_data(m, BENIGN_DATA);
    m.load_program(&prog);
    m.start_program(WORKER, prog.entry(), &[u64::MAX / 2]);
    let mut out = Vec::with_capacity(cfg.windows_per_run);
    for _ in 0..cfg.windows_per_run {
        let before = m.counters_total();
        let t0 = m.clock(MONITOR);
        m.advance(MONITOR, cfg.window_cycles).map_err(|e| e.to_string())?;
        let cycles = m.clock(MONITOR) - t0;
        out.push(CounterDelta::from_banks(&before, &m.counters_total(), cycles));
    }
    m.park(WORKER);
    Ok(out)
}

/// The attack loops profiled as the malicious dataset (paper: 12
/// executions — 6 Prime+iProbe variants + 6 Flush+iReload variants).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AttackLoop {
    /// A Prime+iProbe loop with the given probe class.
    PrimeProbe(ProbeKind),
    /// A Flush+iReload loop with the given probe class.
    FlushReload(ProbeKind),
}

impl AttackLoop {
    /// The paper's twelve profiled attack executions.
    pub fn paper_set() -> Vec<AttackLoop> {
        let kinds = [
            ProbeKind::Flush,
            ProbeKind::FlushOpt,
            ProbeKind::Lock,
            ProbeKind::Prefetch,
            ProbeKind::Store,
            ProbeKind::Clwb,
        ];
        let mut v: Vec<AttackLoop> = kinds.iter().map(|k| AttackLoop::PrimeProbe(*k)).collect();
        v.extend([
            AttackLoop::FlushReload(ProbeKind::Flush),
            AttackLoop::FlushReload(ProbeKind::FlushOpt),
            AttackLoop::FlushReload(ProbeKind::Prefetch),
            AttackLoop::FlushReload(ProbeKind::Clwb),
            AttackLoop::FlushReload(ProbeKind::Load),
            AttackLoop::FlushReload(ProbeKind::PrefetchNta),
        ]);
        v
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            AttackLoop::PrimeProbe(k) => format!("prime+i{k}"),
            AttackLoop::FlushReload(k) => format!("flush+i{k}"),
        }
    }
}

/// Collect counter windows while an attack loop runs on the monitor thread
/// against a benign co-tenant on the worker thread, on a caller-supplied
/// machine in its cold start state (e.g. one checked out from a session
/// pool).
///
/// # Errors
///
/// Returns a message on simulator errors, including unsupported probe
/// classes.
pub fn attack_windows_on(
    m: &mut Machine,
    attack: AttackLoop,
    cfg: &DetectionConfig,
) -> Result<Vec<CounterDelta>, String> {
    let kind = match attack {
        AttackLoop::PrimeProbe(k) | AttackLoop::FlushReload(k) => k,
    };
    if m.profile().smc.get(kind) == SmcBehavior::Unsupported {
        return Err(format!("{} unsupported on {}", attack.name(), m.profile().arch));
    }
    // Co-tenant workload so benign activity is present in both datasets.
    let co = BenignWorkload::StreamSum;
    let prog = co.build(BENIGN_CODE, BENIGN_DATA);
    co.stage_data(m, BENIGN_DATA);
    m.load_program(&prog);
    m.start_program(WORKER, prog.entry(), &[u64::MAX / 2]);

    let mut prober = Prober::new(MONITOR);
    let evset = EvictionSet::for_machine(m, EVSET_BASE, 13);
    let shared = OraclePage::build(Addr(SHARED_BASE), 1);
    match attack {
        AttackLoop::PrimeProbe(_) => evset.install(m),
        AttackLoop::FlushReload(_) => shared.install(m),
    }
    // Real attack binaries run loop control and decoding logic between
    // probe rounds; model it with a small counted loop so the attack's
    // branch-counter footprint is realistic rather than trivially absent.
    let mut loop_asm = smack_uarch::asm::Assembler::new(0x0e40_0000);
    loop_asm
        .label("attacker_logic")
        .mov(smack_uarch::isa::Reg::R7, smack_uarch::isa::Reg::R1)
        .label("l")
        .add_imm(smack_uarch::isa::Reg::R8, 1)
        .add_imm(smack_uarch::isa::Reg::R7, -1)
        .cmp_imm(smack_uarch::isa::Reg::R7, 0)
        .jne("l")
        .ret();
    let loop_prog = loop_asm.assemble().expect("attacker logic assembles");
    m.load_program(&loop_prog);
    let attacker_logic = loop_prog.entry();
    // The calibration's *value* is unused (this harness never decodes),
    // but the pass itself is load-bearing: a real attack binary calibrates
    // at startup, and that warm-up's machine-state side effects are part
    // of the attack execution the detector profiles. Deliberately not
    // routed through the session CalibrationCache — the cache is for
    // attacks that consume thresholds, not for modeled attacker behavior.
    calibrate(m, MONITOR, kind, Addr(SCRATCH), 8).map_err(|e| e.to_string())?;

    let mut out = Vec::with_capacity(cfg.windows_per_run);
    for _ in 0..cfg.windows_per_run {
        let before = m.counters_total();
        let t0 = m.clock(MONITOR);
        while m.clock(MONITOR) - t0 < cfg.window_cycles {
            match attack {
                AttackLoop::PrimeProbe(k) => {
                    evset.prime(m, &mut prober).map_err(|e| e.to_string())?;
                    prober.wait(m, 700).map_err(|e| e.to_string())?;
                    evset.probe(m, &mut prober, k).map_err(|e| e.to_string())?;
                    m.call(MONITOR, attacker_logic, &[12]).map_err(|e| e.to_string())?;
                }
                AttackLoop::FlushReload(k) => {
                    // Keep the line bouncing into the L1i so the probe
                    // conflicts, as a live covert channel would.
                    prober.execute_line(m, shared.line(0)).map_err(|e| e.to_string())?;
                    prober.measure(m, k, shared.line(0)).map_err(|e| e.to_string())?;
                    m.call(MONITOR, attacker_logic, &[6]).map_err(|e| e.to_string())?;
                    prober.wait(m, 400).map_err(|e| e.to_string())?;
                }
            }
        }
        let cycles = m.clock(MONITOR) - t0;
        out.push(CounterDelta::from_banks(&before, &m.counters_total(), cycles));
    }
    m.park(WORKER);
    Ok(out)
}

/// Results of the detection evaluation for one feature set.
#[derive(Clone, Debug)]
pub struct DetectionReport {
    /// Feature set evaluated.
    pub features: FeatureSet,
    /// Classification accuracy.
    pub accuracy: f64,
    /// F1 score (attack = positive class).
    pub f1: f64,
    /// False-positive rate.
    pub fpr: f64,
    /// Confusion counts.
    pub confusion: BinaryConfusion,
    /// Number of benign windows evaluated.
    pub benign_windows: usize,
    /// Number of attack windows evaluated.
    pub attack_windows: usize,
}

/// One independent unit of the §6.1 dataset: a workload run plus its
/// fixed seed. The unit list is the single source of truth for the
/// dataset's composition and seeding, shared by every collector fanning
/// the units out.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DatasetUnit {
    /// A benign-suite workload (label 0).
    Benign(BenignWorkload, u64),
    /// An attack loop (label 1).
    Attack(AttackLoop, u64),
}

impl DatasetUnit {
    /// Whether this unit contributes benign (label-0) windows.
    pub fn is_benign(&self) -> bool {
        matches!(self, DatasetUnit::Benign(..))
    }

    /// The unit's canonical machine seed.
    pub fn seed(&self) -> u64 {
        match self {
            DatasetUnit::Benign(_, seed) | DatasetUnit::Attack(_, seed) => *seed,
        }
    }
}

/// The full dataset composition: every benign workload and every paper
/// attack loop, each with its canonical seed.
pub fn dataset_units() -> Vec<DatasetUnit> {
    let mut units: Vec<DatasetUnit> = BenignWorkload::ALL
        .iter()
        .enumerate()
        .map(|(i, w)| DatasetUnit::Benign(*w, 7_000 + i as u64))
        .collect();
    units.extend(
        AttackLoop::paper_set()
            .iter()
            .enumerate()
            .map(|(i, a)| DatasetUnit::Attack(*a, 9_000 + i as u64)),
    );
    units
}

/// Collect one unit's windows on a caller-supplied machine in its cold
/// start state, created (or reset) with the unit's [`DatasetUnit::seed`]
/// and `cfg.noise`. `Ok(None)` means the unit's probe class is
/// unsupported on this part (the paper's N/A attack rows).
///
/// # Errors
///
/// Returns a message on simulator errors in benign runs; attack-side
/// unsupported-probe errors are folded into `Ok(None)`.
pub fn collect_unit_on(
    m: &mut Machine,
    unit: DatasetUnit,
    cfg: &DetectionConfig,
) -> Result<Option<Vec<CounterDelta>>, String> {
    match unit {
        DatasetUnit::Benign(w, _) => benign_windows_on(m, w, cfg).map(Some),
        DatasetUnit::Attack(a, _) => Ok(attack_windows_on(m, a, cfg).ok()),
    }
}

/// Evaluate one feature set over a pre-collected dataset (80/20 split,
/// kNN k = 3, as in the paper).
pub fn evaluate(
    features: FeatureSet,
    benign: &[CounterDelta],
    attacks: &[CounterDelta],
    seed: u64,
) -> DetectionReport {
    let mut samples: Vec<Sample> =
        benign.iter().map(|d| Sample::new(features.extract(d), 0)).collect();
    samples.extend(attacks.iter().map(|d| Sample::new(features.extract(d), 1)));
    let mut rng = SmallRng::seed_from_u64(seed);
    let (train, test) = train_test_split(samples, 0.8, &mut rng);
    let model = KnnClassifier::fit(3, train);
    let confusion = BinaryConfusion::evaluate(&model, &test);
    DetectionReport {
        features,
        accuracy: confusion.accuracy(),
        f1: confusion.f1(),
        fpr: confusion.fpr(),
        confusion,
        benign_windows: benign.len(),
        attack_windows: attacks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smack::session::{Scenario, Session, Sessions};
    use smack_uarch::MicroArch;

    fn small_cfg() -> DetectionConfig {
        DetectionConfig { window_cycles: 60_000, windows_per_run: 4, ..Default::default() }
    }

    /// A Cascade Lake session machine seeded with `seed` under `cfg.noise`.
    fn machine(cfg: &DetectionConfig, seed: u64) -> Session<'static> {
        let scenario = Scenario::new(MicroArch::CascadeLake).with_noise(cfg.noise).with_seed(seed);
        Sessions::global().session(&scenario)
    }

    fn benign(w: BenignWorkload, cfg: &DetectionConfig, seed: u64) -> Vec<CounterDelta> {
        benign_windows_on(machine(cfg, seed).machine(), w, cfg).unwrap()
    }

    fn attack(a: AttackLoop, cfg: &DetectionConfig, seed: u64) -> Vec<CounterDelta> {
        attack_windows_on(machine(cfg, seed).machine(), a, cfg).unwrap()
    }

    #[test]
    fn attack_windows_show_machine_clears() {
        let cfg = small_cfg();
        let w = attack(AttackLoop::PrimeProbe(ProbeKind::Store), &cfg, 1);
        for d in &w {
            assert!(d.read(PerfEvent::MachineClearsSmc) > 10, "SMC storm expected");
        }
    }

    #[test]
    fn benign_windows_are_mostly_clear_free_except_amg() {
        let cfg = small_cfg();
        for d in &benign(BenignWorkload::StreamSum, &cfg, 2) {
            assert_eq!(d.read(PerfEvent::MachineClearsSmc), 0);
        }
        let amg = benign(BenignWorkload::Amg, &cfg, 3);
        let total: u64 = amg.iter().map(|d| d.read(PerfEvent::MachineClearsSmc)).sum();
        assert!(total > 0, "the amg workload self-modifies");
    }

    #[test]
    fn smc_counter_separates_much_better_than_llc() {
        let cfg = small_cfg();
        let benign: Vec<CounterDelta> = [
            BenignWorkload::StreamSum,
            BenignWorkload::StrideAccess,
            BenignWorkload::Branchy,
            BenignWorkload::Amg,
        ]
        .iter()
        .enumerate()
        .flat_map(|(i, w)| benign(*w, &cfg, 20 + i as u64))
        .collect();
        let attacks: Vec<CounterDelta> =
            [AttackLoop::PrimeProbe(ProbeKind::Store), AttackLoop::FlushReload(ProbeKind::Flush)]
                .iter()
                .enumerate()
                .flat_map(|(i, a)| attack(*a, &cfg, 30 + i as u64))
                .collect();
        let smc = evaluate(FeatureSet::MachineClearsSmc, &benign, &attacks, 5);
        let llc = evaluate(FeatureSet::LlcMisses, &benign, &attacks, 5);
        assert!(smc.f1 >= 0.8, "smc F1 {}", smc.f1);
        assert!(smc.f1 >= llc.f1, "smc {} vs llc {}", smc.f1, llc.f1);
    }

    #[test]
    fn feature_extraction_normalizes_per_cycle() {
        let mut before = CounterBank::new();
        let mut after = CounterBank::new();
        before.add(PerfEvent::MachineClearsSmc, 5);
        after.add(PerfEvent::MachineClearsSmc, 105);
        let d = CounterDelta::from_banks(&before, &after, 100_000);
        assert_eq!(d.read(PerfEvent::MachineClearsSmc), 100);
        let f = FeatureSet::MachineClearsSmc.extract(&d);
        assert!((f[0] - 100.0).abs() < 1e-9);
    }
}
