//! The session layer: reusable machines plus a profile-keyed calibration
//! cache.
//!
//! SMaCk's methodology calibrates a probe's hot/cold decision threshold
//! **once per microarchitecture** and reuses it for the whole campaign
//! (paper §4, Figure 1) — the same one-time threshold discipline
//! Flush+Flush uses for its decision boundary. The experiment harnesses,
//! by contrast, historically paid a full `Machine` construction *and* a
//! fresh calibration pass per trial. This module separates experiment
//! *definition* from *execution*:
//!
//! * a [`Scenario`] says what a trial needs — microarchitecture (or an
//!   ablation-perturbed custom profile), noise model, machine seed;
//! * a [`Sessions`] registry owns a [`MachinePool`] of reset-and-reuse
//!   machines and a [`CalibrationCache`] of [`CalibratedProbe`]s computed
//!   once per `(profile, probe class, cold placement, noise)`;
//! * a [`Session`] is one checked-out machine plus access to the shared
//!   caches — what every trial closure receives.
//!
//! Calibration is computed on a *separate* pooled machine with a fixed
//! seed, never on the trial machine, so (a) the cached value is a pure
//! function of its key — a cache hit and a fresh computation are equal by
//! construction — and (b) a trial's RNG stream is identical whether its
//! calibration was a hit or a miss, which keeps parallel experiment output
//! bit-identical to sequential output. Ablations that perturb probe costs
//! get distinct profile fingerprints, hence their own cache entries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use smack_uarch::{
    Addr, Machine, MachinePool, MicroArch, NoiseConfig, Placement, PooledMachine, ProbeKind,
    StepError, ThreadId, UarchProfile,
};

use crate::calibrate::{calibrate_with_cold, CalibratedProbe};

/// Seed for the dedicated calibration machines. Fixed so that a cached
/// calibration is a deterministic function of its cache key alone.
const CAL_SEED: u64 = 0xca11b;

/// Samples per state for session calibrations (matches the covert-channel
/// harness's historical sample count, the largest in the tree).
const CAL_SAMPLES: usize = 16;

/// Scratch oracle address for session calibrations (line-aligned, in the
/// same unused range the per-attack scratch constants live in).
const CAL_SCRATCH: Addr = Addr(0x0dca_0000);

/// Calibration machines always probe from thread 0, like every attacker
/// in the tree.
const CAL_THREAD: ThreadId = ThreadId::T0;

/// What one experiment trial needs from the session layer: which machine
/// to simulate, under which noise model, from which seed.
///
/// `Scenario::new(arch)` mirrors `Machine::new(profile)` — quiet noise and
/// the same default seed — so refactoring a `Machine::new` call site to a
/// scenario preserves its output bit-for-bit.
#[derive(Clone, Debug)]
pub struct Scenario {
    arch: MicroArch,
    profile: Option<UarchProfile>,
    noise: NoiseConfig,
    seed: u64,
}

/// `Machine::new`'s noise seed, kept in sync so scenario-built machines
/// match `Machine::new` exactly.
const DEFAULT_SEED: u64 = 0x5eed;

impl Scenario {
    /// A scenario on the stock profile for `arch`, with quiet noise and
    /// the `Machine::new` default seed.
    pub fn new(arch: MicroArch) -> Scenario {
        Scenario { arch, profile: None, noise: NoiseConfig::quiet(), seed: DEFAULT_SEED }
    }

    /// A scenario on a custom (e.g. ablation-perturbed) profile.
    pub fn custom(profile: UarchProfile) -> Scenario {
        Scenario {
            arch: profile.arch,
            profile: Some(profile),
            noise: NoiseConfig::quiet(),
            seed: DEFAULT_SEED,
        }
    }

    /// Replace the noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Scenario {
        self.noise = noise;
        self
    }

    /// Replace the machine seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// The microarchitecture.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// The noise model.
    pub fn noise(&self) -> NoiseConfig {
        self.noise
    }

    /// The machine seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full profile (custom if set, stock otherwise).
    pub fn profile(&self) -> UarchProfile {
        self.profile.clone().unwrap_or_else(|| self.arch.profile())
    }
}

/// Cache key: everything a calibration result depends on.
type CalKey = (u64, ProbeKind, Placement, u64);

/// One per-key compute slot. The `OnceLock` serializes concurrent misses
/// on the *same* key (the second thread blocks and reads the first's
/// result) while leaving distinct keys fully parallel — so a calibration
/// really runs at most once per key per process.
type CalSlot = Arc<OnceLock<Result<CalibratedProbe, StepError>>>;

/// The process-wide store of [`CalibratedProbe`]s, keyed by
/// `(profile fingerprint, probe class, cold placement, noise)`.
///
/// Unsupported-probe errors are cached too: they are just as deterministic
/// as successful calibrations, and an experiment sweeping all probe
/// classes hits the `×` cells repeatedly.
#[derive(Debug, Default)]
pub struct CalibrationCache {
    slots: Mutex<HashMap<CalKey, CalSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CalibrationCache {
    /// An empty cache.
    pub fn new() -> CalibrationCache {
        CalibrationCache::default()
    }

    /// Lookups served from the in-memory cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run a calibration so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct keys resident in the cache.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("calibration cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, key: CalKey) -> CalSlot {
        self.slots.lock().expect("calibration cache poisoned").entry(key).or_default().clone()
    }
}

/// The shared session registry: one machine pool plus one calibration
/// cache. Experiment harnesses use the process-wide [`Sessions::global`];
/// tests build private registries to observe counters in isolation.
#[derive(Debug, Default)]
pub struct Sessions {
    pool: MachinePool,
    calibrations: CalibrationCache,
}

impl Sessions {
    /// An empty registry.
    pub fn new() -> Sessions {
        Sessions::default()
    }

    /// The process-wide registry. All `fig*`/`table*` experiments draw
    /// from this one, so machine reuse and cached calibrations span the
    /// whole `all` run: calibration cost drops from
    /// O(trials × probe classes) to O(profiles × probe classes).
    pub fn global() -> &'static Sessions {
        static GLOBAL: OnceLock<Sessions> = OnceLock::new();
        GLOBAL.get_or_init(Sessions::new)
    }

    /// Check out a session for `scenario`: a pooled machine in the exact
    /// `Machine::with_noise(profile, noise, seed)` state plus access to
    /// the shared calibration cache.
    pub fn session(&self, scenario: &Scenario) -> Session<'_> {
        let profile = scenario.profile();
        let profile_fp = profile.fingerprint();
        let machine = self.pool.checkout(&profile, scenario.noise, scenario.seed);
        Session { machine, owner: self, scenario: scenario.clone(), profile_fp }
    }

    /// The machine pool (for stats and diagnostics).
    pub fn pool(&self) -> &MachinePool {
        &self.pool
    }

    /// The calibration cache (for stats and diagnostics).
    pub fn calibrations(&self) -> &CalibrationCache {
        &self.calibrations
    }

    fn calibrated(
        &self,
        scenario: &Scenario,
        profile_fp: u64,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        let key = (profile_fp, kind, cold, noise.fingerprint());
        let slot = self.calibrations.slot(key);
        let mut computed = false;
        let result = slot.get_or_init(|| {
            computed = true;
            self.compute(scenario, kind, cold, noise)
        });
        let counter = if computed { &self.calibrations.misses } else { &self.calibrations.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        result.clone()
    }

    /// Run one calibration on a dedicated pooled machine with the fixed
    /// [`CAL_SEED`], so the result depends only on (profile, kind, cold,
    /// noise) — never on trial state.
    fn compute(
        &self,
        scenario: &Scenario,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        let profile = scenario.profile();
        let mut machine = self.pool.checkout(&profile, noise, CAL_SEED);
        calibrate_with_cold(&mut machine, CAL_THREAD, kind, CAL_SCRATCH, CAL_SAMPLES, cold)
    }
}

/// One trial's execution context: a pooled machine plus the shared
/// calibration cache. Obtained from [`Sessions::session`]; the machine
/// returns to the pool when the session drops.
#[derive(Debug)]
pub struct Session<'s> {
    machine: PooledMachine<'s>,
    owner: &'s Sessions,
    scenario: Scenario,
    profile_fp: u64,
}

impl Session<'_> {
    /// The machine, in whatever state the trial has driven it to.
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The scenario this session was checked out for (its seed tracks
    /// [`Session::renew`]).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Reset the machine to the cold start state under a new seed — the
    /// in-trial equivalent of checking out a fresh session, used by
    /// experiments that collect several independent traces per trial.
    pub fn renew(&mut self, seed: u64) {
        self.scenario.seed = seed;
        self.machine.reset(self.scenario.noise, seed);
    }

    /// Guard for the `_in` attack entry points: the session must have
    /// been checked out under the attack config's noise model, or cached
    /// calibrations and the machine's RNG stream would silently disagree
    /// with the config. A hard error (not a debug assertion) because the
    /// harnesses only ever run in release builds.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch.
    pub fn require_noise(&self, noise: NoiseConfig) -> Result<(), String> {
        if self.scenario.noise.fingerprint() == noise.fingerprint() {
            Ok(())
        } else {
            Err(format!(
                "session noise {:?} does not match the attack's noise model {:?}",
                self.scenario.noise, noise
            ))
        }
    }

    /// The cached [`CalibratedProbe`] for `(profile, kind, cold)` under
    /// the scenario's noise model, calibrating on a dedicated machine on
    /// first use. Never touches this session's machine or RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Unsupported`] (cached, like successes) when
    /// the profile lacks the probe instruction.
    pub fn calibrated(
        &self,
        kind: ProbeKind,
        cold: Placement,
    ) -> Result<CalibratedProbe, StepError> {
        self.calibrated_for(kind, cold, self.scenario.noise)
    }

    /// Like [`Session::calibrated`], but under an explicit noise model —
    /// for harnesses that switch the machine's noise after checkout (the
    /// covert channels force `noisy`).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Unsupported`] when the profile lacks the
    /// probe instruction.
    pub fn calibrated_for(
        &self,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        self.owner.calibrated(&self.scenario, self.profile_fp, kind, cold, noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_defaults_mirror_machine_new() {
        let s = Scenario::new(MicroArch::CascadeLake);
        assert_eq!(s.seed(), 0x5eed);
        assert_eq!(s.noise().fingerprint(), NoiseConfig::quiet().fingerprint());
    }

    #[test]
    fn calibration_runs_once_per_key() {
        let sessions = Sessions::new();
        let scenario = Scenario::new(MicroArch::CascadeLake);
        let mut probes = Vec::new();
        for seed in 0..5 {
            let session = sessions.session(&scenario.clone().with_seed(seed));
            probes.push(session.calibrated(ProbeKind::Store, Placement::L2).unwrap());
        }
        assert_eq!(sessions.calibrations().misses(), 1, "one compute for five trials");
        assert_eq!(sessions.calibrations().hits(), 4);
        assert!(probes.windows(2).all(|w| w[0] == w[1]), "cached values are stable");
    }

    #[test]
    fn distinct_keys_calibrate_separately() {
        let sessions = Sessions::new();
        let scenario = Scenario::new(MicroArch::CascadeLake);
        let session = sessions.session(&scenario);
        session.calibrated(ProbeKind::Store, Placement::L2).unwrap();
        session.calibrated(ProbeKind::Store, Placement::DramOnly).unwrap();
        session.calibrated(ProbeKind::Flush, Placement::L2).unwrap();
        session.calibrated_for(ProbeKind::Store, Placement::L2, NoiseConfig::noisy()).unwrap();
        assert_eq!(sessions.calibrations().misses(), 4);
        assert_eq!(sessions.calibrations().len(), 4);
    }

    #[test]
    fn cached_equals_freshly_computed() {
        let scenario = Scenario::new(MicroArch::TigerLake);
        let sessions = Sessions::new();
        let session = sessions.session(&scenario);
        for kind in [ProbeKind::Store, ProbeKind::Flush, ProbeKind::Lock] {
            for cold in [Placement::L2, Placement::DramOnly] {
                session.calibrated(kind, cold).unwrap();
                let cached = session.calibrated(kind, cold).unwrap();
                let fresh = Sessions::new().session(&scenario).calibrated(kind, cold).unwrap();
                assert_eq!(cached, fresh, "{kind}/{cold}");
            }
        }
        assert_eq!(sessions.calibrations().hits(), 6, "every compared value was a hit");
    }

    #[test]
    fn unsupported_probes_cache_their_error() {
        let sessions = Sessions::new();
        let session = sessions.session(&Scenario::new(MicroArch::SandyBridge));
        for _ in 0..3 {
            let err = session.calibrated(ProbeKind::FlushOpt, Placement::L2).unwrap_err();
            assert_eq!(err, StepError::Unsupported { kind: ProbeKind::FlushOpt });
        }
        assert_eq!(sessions.calibrations().misses(), 1);
        assert_eq!(sessions.calibrations().hits(), 2);
    }

    #[test]
    fn custom_profiles_do_not_share_cache_entries() {
        let sessions = Sessions::new();
        let stock = sessions.session(&Scenario::new(MicroArch::CascadeLake));
        let a = stock.calibrated(ProbeKind::Store, Placement::L2).unwrap();

        let mut profile = MicroArch::CascadeLake.profile();
        let mut costs = profile.probe_costs.get(ProbeKind::Store);
        costs.smc_extra += 100;
        profile.probe_costs.set(ProbeKind::Store, costs);
        let perturbed = sessions.session(&Scenario::custom(profile));
        let b = perturbed.calibrated(ProbeKind::Store, Placement::L2).unwrap();

        assert_eq!(sessions.calibrations().misses(), 2, "perturbed profile is its own key");
        assert!(b.threshold > a.threshold, "perturbed costs shift the threshold");
    }

    #[test]
    fn renew_resets_the_machine() {
        let sessions = Sessions::new();
        let mut session = sessions.session(&Scenario::new(MicroArch::CascadeLake));
        session.machine().write_u64(Addr(0x9000), 42);
        session.renew(99);
        assert_eq!(session.scenario().seed(), 99);
        assert_eq!(session.machine().read_u64(Addr(0x9000)), 0);
    }
}
