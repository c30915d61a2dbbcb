//! Cross-crate integration tests: each paper case study exercised through
//! the public APIs, end to end.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::ispectre::{leak_secret_in, ISpectreConfig};
use smack::rsa::{build_victim, collect_trace_in, decode_trace, score_bits, RsaAttackConfig};
use smack::session::{Scenario, Sessions};
use smack::srp::{single_trace_attack_in, SrpAttackConfig};
use smack_crypto::{Bignum, RsaKeyPair};
use smack_uarch::{MicroArch, NoiseConfig, ProbeKind};

/// A scenario on `arch` under `noise`, seeded with `seed`.
fn scenario(arch: MicroArch, noise: NoiseConfig, seed: u64) -> Scenario {
    Scenario::new(arch).with_noise(noise).with_seed(seed)
}

#[test]
fn covert_channel_transmits_text() {
    let message = b"hi";
    let payload: Vec<bool> =
        message.iter().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1)).collect();
    let sessions = Sessions::new();
    let mut session = sessions.session(&Scenario::new(MicroArch::CascadeLake));
    let r =
        run_channel_in(&mut session, &ChannelSpec::flush_reload(ProbeKind::Flush), &payload, false)
            .expect("channel runs");
    assert_eq!(r.decoded.len(), payload.len());
    let errors = r.decoded.iter().zip(&payload).filter(|(a, b)| a != b).count();
    assert!(errors <= 1, "at most one bit error in 16 bits, got {errors}");
}

#[test]
fn rsa_attack_recovers_real_private_exponent() {
    // A real key pair from the crypto substrate; the attack only observes
    // the simulated victim's cache footprint.
    let mut rng = SmallRng::seed_from_u64(11);
    let key = RsaKeyPair::generate(128, &mut rng);
    let cfg =
        RsaAttackConfig { noise: NoiseConfig::quiet(), ..RsaAttackConfig::new(ProbeKind::Flush) };
    let victim = build_victim(&cfg);
    let sessions = Sessions::new();
    let mut session = sessions.session(&scenario(MicroArch::TigerLake, cfg.noise, 1));
    let trace = collect_trace_in(&mut session, &victim, key.d(), &cfg).expect("trace collects");
    let decoded = decode_trace(&trace, key.d().bit_len());
    let rate = score_bits(&decoded, key.d());
    assert!(rate > 0.5, "paper-level single-trace recovery, got {rate}");
}

#[test]
fn srp_attack_leaks_ephemeral_exponent() {
    let mut rng = SmallRng::seed_from_u64(12);
    let b = Bignum::random_bits(&mut rng, 128);
    let cfg = SrpAttackConfig { noise: NoiseConfig::quiet(), ..SrpAttackConfig::new(4096) };
    let sessions = Sessions::new();
    let mut session = sessions.session(&scenario(MicroArch::TigerLake, cfg.noise, 2));
    let out = single_trace_attack_in(&mut session, &b, &cfg).expect("attack runs");
    assert!(out.leakage > 0.4, "single-trace SRP leakage, got {}", out.leakage);
}

#[test]
fn ispectre_leaks_secret_bytes() {
    let secret = b"spec";
    let cfg = ISpectreConfig::new(ProbeKind::Store);
    let sessions = Sessions::new();
    let mut session = sessions.session(&scenario(MicroArch::CascadeLake, cfg.noise, 3));
    let r = leak_secret_in(&mut session, secret, &cfg).expect("attack runs");
    assert!(r.success_rate >= 0.75, "got {}", r.success_rate);
    assert!(r.machine_clears > 0);
}

#[test]
fn ispectre_fails_where_table3_says_so() {
    // Execute-reload never leaks (Table 3's all-# row).
    let secret = b"xy";
    let cfg = ISpectreConfig::new(ProbeKind::Execute);
    let sessions = Sessions::new();
    let mut session = sessions.session(&scenario(MicroArch::CascadeLake, cfg.noise, 4));
    let r = leak_secret_in(&mut session, secret, &cfg).expect("attack runs");
    assert!(r.success_rate < 0.5, "execute must not leak, got {}", r.success_rate);
}

#[test]
fn channels_fail_on_parts_without_the_instruction() {
    let payload = random_payload(16, 1);
    // clwb does not exist before Cascade Lake: the channel must refuse.
    let sessions = Sessions::new();
    let mut session = sessions.session(&Scenario::new(MicroArch::IvyBridge));
    let err =
        run_channel_in(&mut session, &ChannelSpec::prime_probe(ProbeKind::Clwb), &payload, false)
            .unwrap_err();
    assert!(err.contains("unsupported"), "{err}");
}

#[test]
fn detection_separates_attack_from_benign() {
    let cfg = smack_detection::DetectionConfig {
        window_cycles: 60_000,
        windows_per_run: 4,
        ..Default::default()
    };
    let benign = smack_detection::benign_windows(
        MicroArch::CascadeLake,
        smack_victims::BenignWorkload::MatMul,
        &cfg,
        5,
    )
    .expect("benign windows");
    let attacks = smack_detection::attack_windows(
        MicroArch::CascadeLake,
        smack_detection::AttackLoop::PrimeProbe(ProbeKind::Store),
        &cfg,
        6,
    )
    .expect("attack windows");
    let r = smack_detection::evaluate(
        smack_detection::FeatureSet::MachineClearsSmc,
        &benign,
        &attacks,
        7,
    );
    assert!(r.f1 > 0.9, "F1 {}", r.f1);
}

#[test]
fn constant_time_ladder_defeats_the_attack() {
    // §6.2: against the Montgomery-ladder victim, the attacker's decode is
    // *identical for different keys* — the trace carries no key
    // information. Against the leaky victim, different keys give
    // different decodes.
    use smack_victims::modexp::{ModexpAlgorithm, ModexpVictimBuilder};
    let mut rng = SmallRng::seed_from_u64(61);
    let key_a = Bignum::random_bits(&mut rng, 96);
    let mut key_b = Bignum::random_bits(&mut rng, 96);
    while key_b == key_a {
        key_b = key_b.add(&Bignum::from_u64(2));
    }
    let cfg =
        RsaAttackConfig { noise: NoiseConfig::quiet(), ..RsaAttackConfig::new(ProbeKind::Flush) };
    let sessions = Sessions::new();
    let decode_with = |algorithm: ModexpAlgorithm, key: &Bignum| -> Vec<bool> {
        let mut builder = ModexpVictimBuilder::new(algorithm);
        builder.operand_bits(cfg.operand_bits);
        let victim = builder.build();
        let mut session = sessions.session(&scenario(MicroArch::TigerLake, cfg.noise, 1));
        let trace = collect_trace_in(&mut session, &victim, key, &cfg).expect("trace collects");
        decode_trace(&trace, key.bit_len())
    };
    let ladder_a = decode_with(ModexpAlgorithm::MontgomeryLadder, &key_a);
    let ladder_b = decode_with(ModexpAlgorithm::MontgomeryLadder, &key_b);
    assert_eq!(ladder_a, ladder_b, "constant-time victim: key-independent traces");
    let leaky_a = decode_with(ModexpAlgorithm::BinaryLtr, &key_a);
    let leaky_b = decode_with(ModexpAlgorithm::BinaryLtr, &key_b);
    assert_ne!(leaky_a, leaky_b, "leaky victim: key-dependent traces");
}
