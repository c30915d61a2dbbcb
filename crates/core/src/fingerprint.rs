//! Case Study II steps 1–2: library-version fingerprinting and
//! multiplication-set detection (paper §5.2, Figure 4's feature vectors).
//!
//! The attacker sweeps all 64 L1i sets with Prime+iStore, counting
//! activities per set while the victim's decryption loop runs. The 64-dim
//! activity vector fingerprints the library version (kNN, k=3, Euclidean —
//! exactly the paper's model), and a binary kNN over per-set activity
//! statistics finds the multiplication set.
//!
//! Each measurement runs on a caller-supplied machine in its cold start
//! state (`*_on`), seeded as the measurement's plan says, so a harness
//! can fan the measurements out as independent trials; the classifiers
//! then take the measurements in plan order.

use rand::SeedableRng;
use smack_ml::{cross_validate, KnnClassifier, Sample};
use smack_uarch::{Machine, NoiseConfig, ProbeKind, ThreadId};
use smack_victims::corpus::{build_victim, LibraryVersion};

use crate::calibrate::calibrate;
use crate::oracle::{EvictionSet, OraclePage};
use crate::probe::Prober;

const ATTACKER: ThreadId = ThreadId::T0;
const VICTIM: ThreadId = ThreadId::T1;
const EVSET_BASE: u64 = 0x0a30_0000;
const VICTIM_BASE: u64 = 0x0700_0000;
const SCRATCH: u64 = 0x0d30_0000;

/// Fingerprinting configuration.
#[derive(Copy, Clone, Debug)]
pub struct SweepConfig {
    /// Probe class (the paper uses Prime+iStore).
    pub kind: ProbeKind,
    /// Samples collected per set (the paper uses 100 per set).
    pub samples_per_set: usize,
    /// Wait between prime and probe.
    pub wait_cycles: u64,
    /// Noise model.
    pub noise: NoiseConfig,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            kind: ProbeKind::Store,
            samples_per_set: 10,
            wait_cycles: 700,
            noise: NoiseConfig::realistic(),
        }
    }
}

/// Sweep all 64 L1i sets while a library victim with key `key_seed`
/// runs, on a machine in its cold start state (e.g. one checked out from
/// a session pool); returns the per-set activity counts (the kNN feature
/// vector). The probe threshold is calibrated on this machine.
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn activity_vector_on(
    m: &mut Machine,
    version: &LibraryVersion,
    key_seed: u64,
    cfg: &SweepConfig,
) -> Result<Vec<f64>, String> {
    let victim = build_victim(version, VICTIM_BASE, key_seed);
    m.load_program(&victim.program);

    // One shared oracle region covers every set (64 sets x 8 ways).
    let sets = m.l1i_sets();
    let ways = m.l1i_ways();
    let region = OraclePage::build(smack_uarch::Addr(EVSET_BASE), sets * ways);
    region.install(m);
    let cal = calibrate(m, ATTACKER, cfg.kind, smack_uarch::Addr(SCRATCH), 10)
        .map_err(|e| e.to_string())?;
    let mut prober = Prober::new(ATTACKER);

    // Keep the decryption loop running throughout the sweep.
    m.start_program(VICTIM, victim.entry, &[u64::MAX / 2]);

    let mut vector = Vec::with_capacity(sets);
    for set in 0..sets {
        let ev = EvictionSet::build(EVSET_BASE, set, ways);
        for w in ev.ways() {
            m.warm_tlb(ATTACKER, *w);
        }
        let mut activity = 0u32;
        for _ in 0..cfg.samples_per_set {
            ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
            prober.wait(m, cfg.wait_cycles).map_err(|e| e.to_string())?;
            let timings = ev.probe(m, &mut prober, cfg.kind).map_err(|e| e.to_string())?;
            if timings.iter().any(|t| !cal.is_hit(*t)) {
                activity += 1;
            }
        }
        vector.push(activity as f64);
    }
    m.park(VICTIM);
    Ok(vector)
}

/// One activity-vector measurement of the library-identification
/// experiment.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LibraryMeasurement {
    /// Index of the measured version in the experiment's version list
    /// (also its class label).
    pub version: usize,
    /// Victim key seed.
    pub key_seed: u64,
    /// Machine seed.
    pub seed: u64,
    /// Held out for online identification (otherwise offline training).
    pub online: bool,
}

/// The library-identification measurements over `versions` versions:
/// per version, `offline_per_version` training measurements and then
/// `online_per_version` held-out identification attempts, each with its
/// own key and machine seed.
pub fn library_id_plan(
    versions: usize,
    offline_per_version: usize,
    online_per_version: usize,
) -> Vec<LibraryMeasurement> {
    let mut plan = Vec::with_capacity(versions * (offline_per_version + online_per_version));
    for version in 0..versions {
        plan.extend((0..offline_per_version as u64).map(|k| LibraryMeasurement {
            version,
            key_seed: k,
            seed: 100 + k,
            online: false,
        }));
        plan.extend((0..online_per_version as u64).map(|k| LibraryMeasurement {
            version,
            key_seed: 1000 + k,
            seed: 900 + k,
            online: true,
        }));
    }
    plan
}

/// Report from the library-identification experiment.
#[derive(Clone, Debug)]
pub struct LibraryIdReport {
    /// Offline cross-validation accuracy (paper: 100%).
    pub cv_accuracy: f64,
    /// Online single-measurement identification accuracy (paper: 97%).
    pub online_accuracy: f64,
    /// Number of library versions classified.
    pub versions: usize,
}

/// Classify the activity vectors measured for `plan` (`vectors[i]` is
/// measurement `plan[i]`, from [`activity_vector_on`] on a machine
/// seeded with its seed): cross-validate a kNN over the offline
/// measurements and identify the online ones with it.
pub fn identify_libraries(
    plan: &[LibraryMeasurement],
    vectors: Vec<Vec<f64>>,
    versions: usize,
) -> LibraryIdReport {
    assert_eq!(plan.len(), vectors.len(), "one vector per measurement");
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for (p, v) in plan.iter().zip(vectors) {
        let set = if p.online { &mut test } else { &mut train };
        set.push(Sample::new(v, p.version));
    }
    let mut cv_rng = rand::rngs::SmallRng::seed_from_u64(7);
    let cv_accuracy = cross_validate(&train, 3, 3, &mut cv_rng);
    let model = KnnClassifier::fit(3, train);
    let online_accuracy = model.accuracy(&test);
    LibraryIdReport { cv_accuracy, online_accuracy, versions }
}

/// Machine seed of multiplication-set measurement `measurement` (both of
/// its samples).
pub fn mul_set_seed(measurement: usize) -> u64 {
    42 + measurement as u64
}

/// Step 2, one sample: while an RSA victim with measurement
/// `measurement`'s layout and key decrypts, collect the activity
/// features of its multiplication set (`mul`, label 1) or of an
/// unrelated set (label 0), on a machine in its cold start state seeded
/// with [`mul_set_seed`]. The probe threshold is calibrated on this
/// machine.
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn mul_set_sample_on(
    m: &mut Machine,
    measurement: usize,
    mul: bool,
    cfg: &SweepConfig,
) -> Result<Sample, String> {
    use smack_crypto::Bignum;
    use smack_victims::modexp::{ModexpAlgorithm, ModexpVictimBuilder};

    let mul_set = 8 + (measurement * 7) % 48;
    let set = if mul { mul_set } else { (mul_set + 17) % 64 };
    let mut builder = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr);
    builder.mul_set(mul_set).sqr_set((mul_set + 31) % 64).operand_bits(2048);
    let victim = builder.build();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(500 + measurement as u64);
    let exp = Bignum::random_bits(&mut rng, 96);

    m.load_program(&victim.program);
    let ev = EvictionSet::for_machine(m, EVSET_BASE, set);
    ev.install(m);
    for w in ev.ways() {
        m.warm_tlb(ATTACKER, *w);
    }
    let cal = calibrate(m, ATTACKER, cfg.kind, smack_uarch::Addr(SCRATCH), 8)
        .map_err(|e| e.to_string())?;
    let mut prober = Prober::new(ATTACKER);
    victim.start(m, VICTIM, &exp);
    let mut activity = 0u32;
    let mut total = 0u32;
    while m.state(VICTIM) == smack_uarch::ThreadState::Running && total < 400 {
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        prober.wait(m, cfg.wait_cycles).map_err(|e| e.to_string())?;
        let t = ev.probe(m, &mut prober, cfg.kind).map_err(|e| e.to_string())?;
        if t.iter().any(|x| !cal.is_hit(*x)) {
            activity += 1;
        }
        total += 1;
    }
    let rate = activity as f64 / total.max(1) as f64;
    Ok(Sample::new(vec![activity as f64, rate * 100.0], usize::from(mul)))
}

/// Step 2: detect which set hosts the multiplication routine — a binary
/// kNN over [`mul_set_sample_on`] samples, returning its accuracy on a
/// held-out split.
pub fn mul_set_accuracy(samples: Vec<Sample>) -> f64 {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
    let (train, test) = smack_ml::train_test_split(samples, 0.8, &mut rng);
    let model = KnnClassifier::fit(3, train);
    model.accuracy(&test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Scenario, Session, Sessions};
    use smack_uarch::MicroArch;
    use smack_victims::corpus::corpus;

    fn cfg() -> SweepConfig {
        SweepConfig { samples_per_set: 6, ..SweepConfig::default() }
    }

    /// A Tiger Lake session machine seeded with `seed` under `cfg.noise`.
    fn session(cfg: &SweepConfig, seed: u64) -> Session<'static> {
        let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(seed);
        Sessions::global().session(&scenario)
    }

    fn vector(version: &LibraryVersion, key_seed: u64, cfg: &SweepConfig, seed: u64) -> Vec<f64> {
        activity_vector_on(session(cfg, seed).machine(), version, key_seed, cfg).unwrap()
    }

    #[test]
    fn activity_vectors_reflect_library_layout() {
        let c = corpus();
        let v = vector(&c[0], 0, &cfg(), 1);
        assert_eq!(v.len(), 64);
        let total: f64 = v.iter().sum();
        assert!(total > 0.0, "victim activity must be visible");
        // The hot sets of the layout should rank among the most active.
        let layout = build_victim(&c[0], VICTIM_BASE, 0).layout;
        let hottest_layout_set = layout.iter().max_by_key(|(_, i)| *i).expect("nonempty").0;
        let measured_rank = {
            let mut idx: Vec<usize> = (0..64).collect();
            idx.sort_by(|a, b| v[*b].partial_cmp(&v[*a]).expect("finite"));
            idx.iter().position(|s| *s == hottest_layout_set).expect("set present")
        };
        assert!(measured_rank < 24, "hottest layout set ranked {measured_rank}");
    }

    #[test]
    fn distinct_versions_produce_distinct_vectors() {
        let c = corpus();
        let a = vector(&c[0], 0, &cfg(), 1);
        let b = vector(&c[20], 0, &cfg(), 1);
        let dist = smack_ml::euclidean(&a, &b);
        assert!(dist > 3.0, "distance {dist}");
    }

    #[test]
    fn small_library_id_experiment_classifies_well() {
        let c = corpus();
        let subset: Vec<_> = c.into_iter().step_by(9).collect(); // 4 versions
        let cfg = cfg();
        // The paper uses 8 offline measurements per version; a kNN with
        // k=3 needs at least ~5 per class for folds to keep a same-class
        // majority available.
        let plan = library_id_plan(subset.len(), 5, 1);
        let vectors = plan.iter().map(|p| vector(&subset[p.version], p.key_seed, &cfg, p.seed));
        let report = identify_libraries(&plan, vectors.collect(), subset.len());
        assert!(report.online_accuracy >= 0.75, "online {}", report.online_accuracy);
        assert!(report.cv_accuracy >= 0.7, "cv {}", report.cv_accuracy);
    }

    #[test]
    fn mul_set_detection_beats_chance() {
        let cfg = cfg();
        let samples = (0..12).map(|j| {
            let mut session = session(&cfg, mul_set_seed(j / 2));
            mul_set_sample_on(session.machine(), j / 2, j % 2 == 0, &cfg).unwrap()
        });
        let acc = mul_set_accuracy(samples.collect());
        assert!(acc >= 0.7, "accuracy {acc}");
    }
}
