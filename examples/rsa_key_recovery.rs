//! Case Study II end to end: a Libgcrypt-1.5.1-style RSA victim decrypts
//! on the sibling SMT thread while Prime+iFlush recovers the private
//! exponent's bits from L1i-set activity (paper §5.2).
//!
//! Run with: `cargo run --example rsa_key_recovery`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::rsa::{
    build_victim, collect_trace_in, decode_trace, majority_vote, score_bits, RsaAttackConfig,
};
use smack::session::{Scenario, Sessions};
use smack_crypto::RsaKeyPair;
use smack_uarch::{MicroArch, NoiseConfig, ProbeKind};

fn main() {
    let mut rng = SmallRng::seed_from_u64(2025);
    // An honest (small, for speed) RSA key pair; the attack sees only the
    // victim's instruction-cache footprint, never the key.
    let key = RsaKeyPair::generate(256, &mut rng);
    println!("victim RSA key: n = {}", key.n());
    println!("private exponent bits: {}", key.d().bit_len());

    let cfg =
        RsaAttackConfig { noise: NoiseConfig::quiet(), ..RsaAttackConfig::new(ProbeKind::Flush) };
    let victim = build_victim(&cfg);
    // One session for the whole campaign: the probe threshold is
    // calibrated once, and each trace renews the machine under a new seed.
    let sessions = Sessions::new();
    let mut session = sessions.session(&Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise));
    let mut decodes = Vec::new();
    for trace_idx in 0..6 {
        session.renew(100 + trace_idx);
        let trace = collect_trace_in(&mut session, &victim, key.d(), &cfg).expect("trace collects");
        let decoded = decode_trace(&trace, key.d().bit_len());
        let rate = score_bits(&decoded, key.d());
        println!("trace {trace_idx}: single-trace recovery {:.1}%", rate * 100.0);
        decodes.push(decoded);
    }
    let combined = majority_vote(&decodes, key.d().bit_len());
    let rate = score_bits(&combined, key.d());
    println!();
    println!(
        "majority vote over {} traces: {:.1}% of d's bits recovered",
        decodes.len(),
        rate * 100.0
    );
    println!("(the paper reports ~63% from one trace and 70% after ~10 traces)");
}
