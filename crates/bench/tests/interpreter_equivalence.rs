//! The interpreter tiers are pure mechanics: the reference interpreter and
//! the decoded fast path, each with the fused probe tier off and on, must
//! produce bit-identical experiment output. These tests lock the contract
//! at the experiment level — covert-channel reports, RSA attack traces and
//! a table2 SRP cell on a session machine; CI additionally diffs whole
//! `target/repro/` trees at `SMACK_FUSED_PROBES=0` vs the default.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::{random_payload, run_channel, ChannelSpec};
use smack::rsa::{build_victim, collect_trace_on, RsaAttackConfig};
use smack::session::{Scenario, Sessions};
use smack::srp::{self, SrpAttackConfig};
use smack_bench::experiments::mastik_srp_attack_on;
use smack_crypto::Bignum;
use smack_uarch::{Machine, MicroArch, NoiseConfig, ProbeKind, ThreadId};

/// Every `(decoded, fused probes)` tier; the first, the reference
/// interpreter stepping every probe, is the baseline.
const TIERS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

fn set_tier(m: &mut Machine, (decoded, fused): (bool, bool)) {
    m.set_decoded_fast_path(decoded);
    m.set_fused_probes(fused);
}

fn machine(seed: u64, tier: (bool, bool)) -> Machine {
    let mut m = Machine::with_noise(MicroArch::CascadeLake.profile(), NoiseConfig::quiet(), seed);
    set_tier(&mut m, tier);
    m
}

#[test]
fn channel_reports_identical_across_tiers() {
    for spec in
        [ChannelSpec::prime_probe(ProbeKind::Store), ChannelSpec::flush_reload(ProbeKind::Flush)]
    {
        let payload = random_payload(48, 11);
        let baseline =
            run_channel(&mut machine(7, TIERS[0]), &spec, &payload, false).expect("channel runs");
        for tier in &TIERS[1..] {
            let got =
                run_channel(&mut machine(7, *tier), &spec, &payload, false).expect("channel runs");
            assert_eq!(got, baseline, "{} diverged at (decoded, fused) = {tier:?}", spec.name());
        }
    }
}

#[test]
fn rsa_traces_identical_across_tiers() {
    let cfg = RsaAttackConfig::new(ProbeKind::Store);
    let victim = build_victim(&cfg);
    let exp = Bignum::from_hex("b5a96e1dc3f47a2b");
    let baseline = collect_trace_on(&mut machine(13, TIERS[0]), &victim, &exp, &cfg, 13, None)
        .expect("trace collects");
    assert!(!baseline.samples.is_empty(), "attack produced samples");
    for tier in &TIERS[1..] {
        let got = collect_trace_on(&mut machine(13, *tier), &victim, &exp, &cfg, 13, None)
            .expect("trace collects");
        assert_eq!(got, baseline, "trace diverged at (decoded, fused) = {tier:?}");
    }
}

/// One table2 cell as table2 runs it — Prime+iStore on a pooled session
/// machine, a renew, then the Mastik baseline — at the 1024-bit group
/// with quick mode's 160-bit exponent. A victim co-runs throughout, so
/// this drives the fused tier's sibling catch-up and the `Execute` probe.
#[test]
fn srp_table2_cell_identical_across_tiers() {
    let (group, key) = (1024, 1u64);
    let b = Bignum::random_bits(&mut SmallRng::seed_from_u64(0x7b + key), 160);
    let cfg = SrpAttackConfig { noise: NoiseConfig::noisy(), ..SrpAttackConfig::new(group) };
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(key);
    let sessions = Sessions::new();
    let cell = |tier: (bool, bool)| {
        let mut session = sessions.session(&scenario);
        set_tier(session.machine(), tier);
        let smack = srp::single_trace_attack_in(&mut session, &b, &cfg).expect("smc attack runs");
        session.renew(key);
        set_tier(session.machine(), tier);
        let mastik =
            mastik_srp_attack_on(session.machine(), group, &b).expect("mastik attack runs");
        let m = session.machine();
        let clocks = (m.clock(ThreadId::T0), m.clock(ThreadId::T1));
        (smack.samples, smack.leakage.to_bits(), mastik.samples, mastik.leakage.to_bits(), clocks)
    };
    let baseline = cell(TIERS[0]);
    assert!(baseline.0.iter().any(|s| s.1), "the attack saw the victim");
    for tier in &TIERS[1..] {
        assert!(cell(*tier) == baseline, "table2 cell diverged at (decoded, fused) = {tier:?}");
    }
}
