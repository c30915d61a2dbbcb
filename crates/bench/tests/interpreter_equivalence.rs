//! The interpreter tiers are pure mechanics: the reference, decoded and
//! fused tiers must produce bit-identical experiment output. These tests
//! lock the contract at the experiment level — calibrated thresholds,
//! covert-channel reports, RSA attack traces, a table2 SRP cell and
//! ISpectre leaks, each attack on a session machine pinned to the tier;
//! CI additionally diffs whole repro CSV trees at `SMACK_FUSED_PROBES=0`
//! (the decoded tier) vs the default (the fused tier).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::calibrate::calibrate_with_cold;
use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::ispectre::{leak_secret_in, ISpectreConfig};
use smack::rsa::{build_victim, collect_trace_in, RsaAttackConfig};
use smack::session::{Scenario, Sessions};
use smack::srp::{self, SrpAttackConfig};
use smack_bench::experiments::mastik_srp_attack_on;
use smack_crypto::Bignum;
use smack_uarch::{
    Addr, Machine, MicroArch, NoiseConfig, PerfEvent, Placement, ProbeKind, ThreadId, Tier,
};

/// Every tier; the first, the reference interpreter stepping every probe,
/// is the baseline.
const TIERS: [Tier; 3] = [Tier::Reference, Tier::Decoded, Tier::Fused];

/// `Session::calibrated` computes on a machine of its own, never on the
/// tier-pinned session machine, so the attack tests below share one
/// threshold across tiers; this test shows each tier would have computed
/// the same one, for all nine probe classes.
#[test]
fn calibrations_identical_across_tiers() {
    let profile = MicroArch::CascadeLake.profile();
    for noise in [NoiseConfig::quiet(), NoiseConfig::noisy()] {
        for kind in ProbeKind::ALL {
            for cold in [Placement::L2, Placement::DramOnly] {
                let calibrate = |tier| {
                    let mut m = Machine::with_noise(profile.clone(), noise, 0xca11b);
                    m.set_tier(tier);
                    calibrate_with_cold(&mut m, ThreadId::T0, kind, Addr(0x0dca_0000), 16, cold)
                        .expect("calibrates")
                };
                let baseline = calibrate(TIERS[0]);
                for tier in &TIERS[1..] {
                    let got = calibrate(*tier);
                    assert_eq!(got, baseline, "{kind}/{cold} on {tier:?}");
                }
            }
        }
    }
}

/// Channel reports with their traces recorded; the fused tier must serve
/// the channel's probes.
#[test]
fn channel_reports_identical_across_tiers() {
    let sessions = Sessions::new();
    let scenario = Scenario::new(MicroArch::CascadeLake).with_seed(7);
    for spec in
        [ChannelSpec::prime_probe(ProbeKind::Store), ChannelSpec::flush_reload(ProbeKind::Flush)]
    {
        let payload = random_payload(48, 11);
        let run = |tier| {
            let mut session = sessions.session(&scenario);
            session.machine().set_tier(tier);
            let report = run_channel_in(&mut session, &spec, &payload, true).expect("channel runs");
            (report, session.machine().counters(ThreadId::T0).read(PerfEvent::SimProbeFastPath))
        };
        let (baseline, _) = run(TIERS[0]);
        for tier in &TIERS[1..] {
            let (report, fast) = run(*tier);
            assert_eq!(report, baseline, "{} diverged on {tier:?}", spec.name());
            if *tier == Tier::Fused {
                assert!(fast > 0, "{}: the fused tier served no probe", spec.name());
            }
        }
    }
}

#[test]
fn rsa_traces_identical_across_tiers() {
    let cfg = RsaAttackConfig::new(ProbeKind::Store);
    let victim = build_victim(&cfg);
    let exp = Bignum::from_hex("b5a96e1dc3f47a2b");
    let sessions = Sessions::new();
    let scenario = Scenario::new(MicroArch::CascadeLake).with_noise(cfg.noise).with_seed(13);
    let trace = |tier| {
        let mut session = sessions.session(&scenario);
        session.machine().set_tier(tier);
        collect_trace_in(&mut session, &victim, &exp, &cfg).expect("trace collects")
    };
    let baseline = trace(TIERS[0]);
    assert!(!baseline.samples.is_empty(), "attack produced samples");
    for tier in &TIERS[1..] {
        assert_eq!(trace(*tier), baseline, "trace diverged on {tier:?}");
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
    let cell = |tier: Tier| {
        let mut session = sessions.session(&scenario);
        session.machine().set_tier(tier);
        let smack = srp::single_trace_attack_in(&mut session, &b, &cfg).expect("smc attack runs");
        session.renew(key);
        session.machine().set_tier(tier);
        let mastik =
            mastik_srp_attack_on(session.machine(), group, &b).expect("mastik attack runs");
        let m = session.machine();
        let clocks = (m.clock(ThreadId::T0), m.clock(ThreadId::T1));
        (smack.samples, smack.leakage.to_bits(), mastik.samples, mastik.leakage.to_bits(), clocks)
    };
    let baseline = cell(TIERS[0]);
    assert!(baseline.0.iter().any(|s| s.1), "the attack saw the victim");
    for tier in &TIERS[1..] {
        assert!(cell(*tier) == baseline, "table2 cell diverged on {tier:?}");
    }
}

/// ISpectre as table3/table4 run it, on three cells: Cascade Lake store
/// (the leak rides on machine clears, ●), Cascade Lake load (leaks
/// without them, with a cleanup flush after every reload, ◐) and EPYC
/// 7232P flush (no clears at all). Reports and every hardware counter
/// must match across tiers, and the fused tier must actually serve the
/// attack's probes.
#[test]
fn ispectre_leaks_identical_across_tiers() {
    let secret = b"Sm";
    // (part, probe class, whether the reload primitive machine-clears)
    let cells = [
        (MicroArch::CascadeLake, ProbeKind::Store, true),
        (MicroArch::CascadeLake, ProbeKind::Load, false),
        (MicroArch::AmdEpyc7232P, ProbeKind::Flush, false),
    ];
    let sessions = Sessions::new();
    for (arch, kind, clears) in cells {
        let cfg = ISpectreConfig::new(kind);
        let scenario = Scenario::new(arch).with_noise(cfg.noise).with_seed(0x7ab3);
        let leak = |tier| {
            let mut session = sessions.session(&scenario);
            session.machine().set_tier(tier);
            let report = leak_secret_in(&mut session, secret, &cfg).expect("attack runs");
            let m = session.machine();
            let hardware = |tid| -> Vec<u64> {
                PerfEvent::ALL
                    .iter()
                    .filter(|e| !e.is_sim())
                    .map(|e| m.counters(tid).read(*e))
                    .collect()
            };
            let counters = (hardware(ThreadId::T0), hardware(ThreadId::T1));
            (report, counters, m.counters(ThreadId::T0).read(PerfEvent::SimProbeFastPath))
        };
        let (baseline, counters, _) = leak(TIERS[0]);
        assert!(baseline.success_rate > 0.0, "{arch} {kind} leaked nothing");
        assert_eq!(baseline.machine_clears > 0, clears, "{arch} {kind} clears");
        for tier in &TIERS[1..] {
            let (report, tier_counters, fast) = leak(*tier);
            assert_eq!(report, baseline, "{arch} {kind} report on {tier:?}");
            assert_eq!(tier_counters, counters, "{arch} {kind} counters on {tier:?}");
            if *tier == Tier::Fused {
                assert!(fast > 0, "{arch} {kind}: the fused tier served no probe");
            }
        }
    }
}
