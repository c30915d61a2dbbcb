//! The fused probe tier must be invisible to everything built on top of
//! [`Prober`]: measurements, waits, calibration thresholds, and whole
//! covert-channel transmissions must be bit-identical whether probe
//! sequences retire through the fused engine pass or per-step injection.

use smack::{calibrate_with_cold, run_channel_in, ChannelSpec, Prober, Scenario, Sessions};
use smack_uarch::isa::Reg;
use smack_uarch::{
    Addr, Machine, MicroArch, NoiseConfig, PerfEvent, Placement, ProbeKind, StepError, ThreadId,
    Tier,
};

const T0: ThreadId = ThreadId::T0;
const SCRATCH: Addr = Addr(0x3_0000);

/// The fused tier, or its per-step oracle, the decoded tier.
fn tier(fused: bool) -> Tier {
    if fused {
        Tier::Fused
    } else {
        Tier::Decoded
    }
}

fn machine(fused: bool) -> Machine {
    let mut m = Machine::new(MicroArch::CascadeLake.profile());
    m.set_tier(tier(fused));
    m
}

fn noisy_machine(fused: bool, seed: u64) -> Machine {
    let mut m =
        Machine::with_noise(MicroArch::CascadeLake.profile(), NoiseConfig::realistic(), seed);
    m.set_tier(tier(fused));
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
    let sessions = Sessions::new();
    let scenario = Scenario::new(MicroArch::CascadeLake);
    for spec in
        [ChannelSpec::prime_probe(ProbeKind::Store), ChannelSpec::flush_reload(ProbeKind::Flush)]
    {
        let mut fused = sessions.session(&scenario);
        let mut stepped = sessions.session(&scenario);
        fused.machine().set_tier(Tier::Fused);
        stepped.machine().set_tier(Tier::Decoded);
        let a = run_channel_in(&mut fused, &spec, &payload, true).unwrap();
        let b = run_channel_in(&mut stepped, &spec, &payload, true).unwrap();
        assert_eq!(a, b, "{} diverged under fusion", spec.name());
        assert!(
            fused.machine().counters(T0).read(PerfEvent::SimProbeFastPath) > 0,
            "{}: channel never took the fast path",
            spec.name()
        );
    }
}

/// A sibling for the batched-probe rounds: `iters` turns of a counted
/// delay loop (the loop tier's and the batch carry's shape, on L1i sets 0
/// and 1, clear of the eviction set), then a call into unmapped memory.
fn looping_victim(iters: u64) -> smack_uarch::asm::Program {
    let mut a = smack_uarch::asm::Assembler::new(0x48_0000);
    a.mov_imm(Reg::R11, iters)
        .label("body")
        .delay(64)
        .add_imm(Reg::R11, -1)
        .cmp_imm(Reg::R11, 0)
        .je("done")
        .jmp("tail");
    a.org(0x48_0040).label("tail").jmp("body").label("done");
    a.mov_imm(Reg::R4, 0xdead_0000).call_reg(Reg::R4);
    a.assemble().expect("victim assembles")
}

/// Everything a probe round must leave alike: both threads' registers,
/// clocks, states, fetch state and hardware counters.
fn round_state(m: &Machine) -> Vec<String> {
    let mut out = vec![format!("{:?}", hw_counters(m))];
    for tid in [ThreadId::T0, ThreadId::T1] {
        let regs: Vec<u64> = (0..Reg::COUNT).map(|i| m.reg(tid, Reg::from_index(i))).collect();
        out.push(format!("{regs:?} {} {:?} {:?}", m.clock(tid), m.state(tid), m.fetch_state(tid)));
    }
    out
}

/// Eviction-set probe rounds of `kind` through one `run_probes` entry
/// each (`batched`) or one `Prober::measure` per way, with a looping
/// sibling that faults after `iters` turns: the timings of every completed
/// round and the error, if any, with the state it left.
fn probe_rounds(
    arch: MicroArch,
    kind: ProbeKind,
    fused: bool,
    batched: bool,
    iters: u64,
) -> (Vec<u64>, Option<StepError>, Vec<String>) {
    let mut m = Machine::with_noise(arch.profile(), NoiseConfig::realistic(), 9);
    m.set_tier(tier(fused));
    let ev = smack::EvictionSet::build(0x20_0000, 40, 8);
    ev.install(&mut m);
    for w in ev.ways() {
        m.warm_tlb(T0, *w);
    }
    let victim = looping_victim(iters);
    m.load_program(&victim);
    m.start_program(ThreadId::T1, victim.entry(), &[]);
    let mut prober = Prober::new(T0);
    let (mut timings, mut out) = (Vec::new(), vec![0; 8]);
    for round in 0..40 {
        let ways = &ev.ways()[..1 + round % 8];
        let r = if batched {
            // A failing round leaves the slots of the probes it did not
            // finish at 0; every finished probe measured some cycles.
            let out = &mut out[..ways.len()];
            out.fill(0);
            let r = prober.measure_lines(&mut m, kind, ways, out);
            timings.extend(out.iter().copied().take_while(|&t| t > 0));
            r
        } else {
            ways.iter()
                .try_for_each(|&w| prober.measure(&mut m, kind, w).map(|t| timings.push(t.cycles)))
        };
        let r = r
            .and_then(|()| ev.prime(&mut m, &mut prober))
            .and_then(|()| prober.wait(&mut m, 150 + 53 * round as u64 % 400));
        if let Err(e) = r {
            return (timings, Some(e), round_state(&m));
        }
    }
    (timings, None, round_state(&m))
}

/// `Machine::run_probes` (through `Prober::measure_lines`, as every
/// eviction-set probe round runs) is one `Prober::measure` per way: the
/// same timings, registers, clocks, fetch state and counters for every
/// probe class, fused or per-step, with a looping sibling that the
/// `Execute` rounds carry, that faults mid-round, or that outlives the
/// run — and the same error and partial state where the class is
/// unsupported (Ivy Bridge has neither `clflushopt` nor `clwb`).
#[test]
fn batched_probe_rounds_match_per_probe_measure() {
    let mut errors = 0;
    for arch in [MicroArch::CascadeLake, MicroArch::IvyBridge] {
        for kind in ProbeKind::ALL {
            for iters in [40, 1_000_000] {
                let reference = probe_rounds(arch, kind, false, false, iters);
                for (fused, batched) in [(false, true), (true, false), (true, true)] {
                    let got = probe_rounds(arch, kind, fused, batched, iters);
                    assert_eq!(
                        got, reference,
                        "{arch:?} {kind} iters {iters}: fused {fused}, batched {batched}"
                    );
                }
                errors += usize::from(reference.1.is_some());
            }
        }
    }
    // Unsupported classes on Ivy Bridge, and the faulting sibling.
    assert!(errors > 4, "{errors} runs stopped on an error");
}
