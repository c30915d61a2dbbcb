//! The fused probe tier must be invisible to everything built on top of
//! [`Prober`]: measurements, waits, calibration thresholds, and whole
//! covert-channel transmissions must be bit-identical whether probe
//! sequences retire through the fused engine pass or per-step injection.

use smack::{calibrate_with_cold, run_channel, ChannelSpec, Prober};
use smack_uarch::{
    Addr, Machine, MicroArch, NoiseConfig, PerfEvent, Placement, ProbeKind, ThreadId,
};

const T0: ThreadId = ThreadId::T0;
const SCRATCH: Addr = Addr(0x3_0000);

fn machine(fused: bool) -> Machine {
    let mut m = Machine::new(MicroArch::CascadeLake.profile());
    m.set_fused_probes(fused);
    m
}

fn noisy_machine(fused: bool, seed: u64) -> Machine {
    let mut m =
        Machine::with_noise(MicroArch::CascadeLake.profile(), NoiseConfig::realistic(), seed);
    m.set_fused_probes(fused);
    m
}

/// Counter values both configurations must agree on: every modeled
/// hardware event, i.e. everything but the `SIM.*` engine bookkeeping.
fn hw_counters(m: &Machine) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for tid in [ThreadId::T0, ThreadId::T1] {
        for e in PerfEvent::ALL {
            if !e.is_sim() {
                out.push((e.name(), m.counters(tid).read(e)));
            }
        }
    }
    out
}

/// One measurement loop shared by both configurations: every probe class
/// against hot and cold placements, with prime→probe waits in between.
fn measure_all_kinds(m: &mut Machine) -> Vec<(ProbeKind, u64, u64)> {
    // A real routine at the scratch line, so the Execute probe has
    // something to call (and write-class probes hit an instruction line).
    let oracle = smack::OraclePage::build(SCRATCH, 1);
    oracle.install(m);
    let line = oracle.line(0);
    let mut prober = Prober::new(T0);
    m.warm_tlb(T0, line);
    let mut out = Vec::new();
    for kind in ProbeKind::ALL {
        for placement in [Placement::L1i, Placement::L2, Placement::DramOnly] {
            m.place_line(line, placement);
            let t = prober.measure(m, kind, line).expect("CascadeLake supports all classes");
            prober.wait(m, 700).expect("wait");
            out.push((t.kind, t.cycles, m.clock(T0)));
        }
    }
    out
}

#[test]
fn prober_measurements_match_per_step_for_all_kinds() {
    let mut fused = machine(true);
    let mut stepped = machine(false);
    let a = measure_all_kinds(&mut fused);
    let b = measure_all_kinds(&mut stepped);
    assert_eq!(a, b, "probe timings or clocks diverged under fusion");
    assert_eq!(hw_counters(&fused), hw_counters(&stepped));
    // Every class took the fast path — Execute too, its callee being the
    // oracle's `nop*; ret` line; the per-step machine never did.
    let fast = fused.counters(T0).read(PerfEvent::SimProbeFastPath);
    assert_eq!(fast, ProbeKind::ALL.len() as u64 * 3);
    assert_eq!(stepped.counters(T0).read(PerfEvent::SimProbeFastPath), 0);
}

#[test]
fn prober_measurements_match_under_noise() {
    for seed in [1u64, 42, 0xdead_beef] {
        let mut fused = noisy_machine(true, seed);
        let mut stepped = noisy_machine(false, seed);
        assert_eq!(
            measure_all_kinds(&mut fused),
            measure_all_kinds(&mut stepped),
            "seed {seed} diverged"
        );
        assert_eq!(hw_counters(&fused), hw_counters(&stepped), "seed {seed} counters diverged");
    }
}

#[test]
fn prober_wait_matches_chunked_advance() {
    let mut fused = machine(true);
    let mut stepped = machine(false);
    let mut pf = Prober::new(T0);
    let mut ps = Prober::new(T0);
    for cycles in [0u64, 1, 199, 200, 201, 1_000, 123_457] {
        pf.wait(&mut fused, cycles).unwrap();
        ps.wait(&mut stepped, cycles).unwrap();
        assert_eq!(fused.clock(T0), stepped.clock(T0), "after wait({cycles})");
    }
    assert_eq!(hw_counters(&fused), hw_counters(&stepped));
}

#[test]
fn calibrated_thresholds_unchanged_under_fusion() {
    for cold in [Placement::L2, Placement::DramOnly] {
        for kind in ProbeKind::ALL {
            let a = calibrate_with_cold(&mut machine(true), T0, kind, SCRATCH, 16, cold).unwrap();
            let b = calibrate_with_cold(&mut machine(false), T0, kind, SCRATCH, 16, cold).unwrap();
            assert_eq!(a, b, "{kind} calibration diverged with cold={cold:?}");
        }
    }
}

#[test]
fn covert_channel_reports_identical_under_fusion() {
    let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
    for spec in
        [ChannelSpec::prime_probe(ProbeKind::Store), ChannelSpec::flush_reload(ProbeKind::Flush)]
    {
        let mut fused = machine(true);
        let mut stepped = machine(false);
        let a = run_channel(&mut fused, &spec, &payload, true).unwrap();
        let b = run_channel(&mut stepped, &spec, &payload, true).unwrap();
        assert_eq!(a, b, "{} diverged under fusion", spec.name());
        assert!(
            fused.counters(T0).read(PerfEvent::SimProbeFastPath) > 0,
            "{}: channel never took the fast path",
            spec.name()
        );
    }
}
