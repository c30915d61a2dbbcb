//! Session-layer regression tests: a reset (pooled) machine must be
//! bit-identical to a fresh one for whole attack pipelines, and the
//! calibration cache must calibrate at most once per
//! `(profile, probe class, cold placement, noise)` while returning values
//! equal to a fresh computation in another registry.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::rsa::{self, RsaAttackConfig};
use smack::session::{Scenario, Session, Sessions};
use smack::srp::{self, SrpAttackConfig};
use smack_crypto::Bignum;
use smack_uarch::{MicroArch, NoiseConfig, Placement, ProbeKind};

/// Drive a session's machine through an unrelated noisy workload so its
/// caches, TLBs, predictor, memory and RNG are thoroughly dirty before the
/// reset.
fn dirty(session: &mut Session<'_>) {
    let payload = random_payload(40, 0xd1);
    run_channel_in(session, &ChannelSpec::prime_probe(ProbeKind::Flush), &payload, false)
        .expect("dirtying channel runs");
    session.machine().write_u64(smack_uarch::Addr(0x0b00_0000), u64::MAX);
}

#[test]
fn reset_machine_reproduces_channel_report_bit_identically() {
    let scenario = Scenario::new(MicroArch::CascadeLake).with_noise(NoiseConfig::realistic());
    let payload = random_payload(96, 0xd5);
    let spec = ChannelSpec::prime_probe(ProbeKind::Store);

    let sessions = Sessions::new();
    let mut fresh = sessions.session(&scenario.clone().with_seed(0xfeed));
    let want = run_channel_in(&mut fresh, &spec, &payload, true).expect("fresh channel runs");

    let other = Sessions::new();
    let mut reused = other.session(&scenario.with_seed(0x0ddba11));
    dirty(&mut reused);
    reused.renew(0xfeed);
    let got = run_channel_in(&mut reused, &spec, &payload, true).expect("reset channel runs");

    assert_eq!(want, got, "reset must erase every trace of the previous trial");
}

#[test]
fn reset_machine_reproduces_rsa_trace_bit_identically() {
    let mut rng = SmallRng::seed_from_u64(9);
    let exp = Bignum::random_bits(&mut rng, 96);
    let cfg = RsaAttackConfig::new(ProbeKind::Flush);
    let victim = rsa::build_victim(&cfg);
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(0x51);
    let fresh = Sessions::new();
    let want =
        rsa::collect_trace_in(&mut fresh.session(&scenario), &victim, &exp, &cfg).expect("fresh");

    let sessions = Sessions::new();
    // First session: machine is built. Dirty it via a different trace,
    // then renew — same pooled machine, reset in place.
    let mut session = sessions.session(&scenario.clone().with_seed(0x99));
    rsa::collect_trace_in(&mut session, &victim, &exp, &cfg).expect("dirtying trace");
    session.renew(0x51);
    let via_renew = rsa::collect_trace_in(&mut session, &victim, &exp, &cfg).expect("renewed");
    drop(session);

    // Second session with the same scenario: served from the shelf.
    let mut session = sessions.session(&scenario);
    assert!(sessions.pool().stats().reused >= 1, "second checkout must reuse");
    let via_pool = rsa::collect_trace_in(&mut session, &victim, &exp, &cfg).expect("pooled");

    assert_eq!(via_renew, want, "a renewed machine reproduces a fresh one");
    assert_eq!(via_pool, want, "a pooled machine reproduces a fresh one");
}

#[test]
fn session_channel_is_deterministic_across_pool_reuse() {
    let sessions = Sessions::new();
    let scenario = Scenario::new(MicroArch::CascadeLake).with_noise(NoiseConfig::noisy());
    let payload = random_payload(64, 0x7ab1e1);
    let spec = ChannelSpec::flush_reload(ProbeKind::Flush);

    let mut first = sessions.session(&scenario);
    let a = run_channel_in(&mut first, &spec, &payload, true).expect("first run");
    drop(first);
    let mut second = sessions.session(&scenario);
    let b = run_channel_in(&mut second, &spec, &payload, true).expect("second run");

    assert!(sessions.pool().stats().reused >= 1);
    assert_eq!(a, b, "a pooled rerun of the same scenario is bit-identical");
}

#[test]
fn campaign_calibrates_once_per_key() {
    // The fig5-style campaign: many traces per probe class, one process.
    let sessions = Sessions::new();
    let mut rng = SmallRng::seed_from_u64(0x5e551);
    let exp = Bignum::random_bits(&mut rng, 64);
    let kinds = [ProbeKind::Flush, ProbeKind::Store];
    for kind in kinds {
        let cfg = RsaAttackConfig::new(kind);
        let victim = rsa::build_victim(&cfg);
        let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise);
        let mut session = sessions.session(&scenario);
        for trace_idx in 0..4u64 {
            session.renew(2_000 + trace_idx);
            rsa::collect_trace_in(&mut session, &victim, &exp, &cfg).expect("trace");
        }
    }
    let cal = sessions.calibrations();
    assert_eq!(cal.misses(), kinds.len() as u64, "one calibration per probe class");
    assert_eq!(cal.hits(), (kinds.len() * 3) as u64, "every later trace hits the cache");
}

#[test]
fn cached_calibration_equals_fresh_computation() {
    let scenario = Scenario::new(MicroArch::TigerLake);
    let sessions = Sessions::new();
    let session = sessions.session(&scenario);
    // The second registry calibrates on a pooled machine a trial has
    // already dirtied, so equality also shows the reset erases it.
    let registry = Sessions::new();
    let other = registry.session(&scenario);
    dirty(&mut registry.session(&scenario));
    for kind in [ProbeKind::Flush, ProbeKind::Store, ProbeKind::Lock, ProbeKind::Clwb] {
        for cold in [Placement::L2, Placement::DramOnly] {
            session.calibrated(kind, cold).expect("calibrates");
            let cached = session.calibrated(kind, cold).expect("cache hit");
            let fresh = other.calibrated(kind, cold).expect("calibrates");
            assert_eq!(cached, fresh, "{kind}/{cold}: cache must be a pure function of its key");
        }
    }
    assert_eq!(sessions.calibrations().hits(), 8, "every compared value was a hit");
    // Built: `other`'s machine, the dirtied one, and the dirtying channel's
    // noisy calibration machine — every quiet calibration reused the
    // dirtied machine.
    assert_eq!(registry.pool().stats().built, 3, "calibrations ran on the dirtied machine");
}

#[test]
fn srp_session_attack_matches_shapes_and_reuses_machines() {
    let sessions = Sessions::new();
    let mut rng = SmallRng::seed_from_u64(44);
    let b = Bignum::random_bits(&mut rng, 128);
    let cfg = SrpAttackConfig { noise: NoiseConfig::quiet(), ..SrpAttackConfig::new(4096) };
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(3);

    let mut session = sessions.session(&scenario);
    let first = srp::single_trace_attack_in(&mut session, &b, &cfg).expect("attack runs");
    drop(session);
    let mut session = sessions.session(&scenario);
    let second = srp::single_trace_attack_in(&mut session, &b, &cfg).expect("attack reruns");

    assert!(first.leakage > 0.5, "leakage {}", first.leakage);
    assert_eq!(first.samples, second.samples, "pooled rerun is bit-identical");
    let stats = sessions.pool().stats();
    assert!(stats.reused >= 1, "stats: {stats:?}");
}
