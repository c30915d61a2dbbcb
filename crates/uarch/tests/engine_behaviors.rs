//! Behavioral tests of the simulator through its public API: front-end
//! streaming, TLB charging, speculation bounds, machine-clear side effects
//! and cross-thread interactions.

use smack_uarch::asm::Assembler;
use smack_uarch::isa::{Instr, MemRef, MemSize, Reg};
use smack_uarch::{
    Addr, CompiledProbe, Machine, MicroArch, NoiseConfig, PerfEvent, Placement, ProbeKind,
    ThreadId, ThreadState, Tier,
};

const T0: ThreadId = ThreadId::T0;
const T1: ThreadId = ThreadId::T1;

fn cl() -> Machine {
    Machine::new(MicroArch::CascadeLake.profile())
}

/// Straight-line code within one cache line is fetched once: executing 32
/// nops costs far less than 32 separate line fetches would.
#[test]
fn fetch_streams_within_a_line() {
    let mut m = cl();
    let mut a = Assembler::new(0x1000);
    a.nops(32).ret();
    m.load_program(&a.assemble().unwrap());
    // Cold call: pays one DRAM ifetch, then streams.
    let cold = m.run_sequence(T0, &[Instr::Call { target: 0x1000 }]).unwrap().cycles;
    let warm = m.run_sequence(T0, &[Instr::Call { target: 0x1000 }]).unwrap().cycles;
    assert!(cold > warm + 150, "cold {cold} vs warm {warm}: one line fill only");
    assert!(warm < 80, "warm execution streams: {warm}");
}

/// The iTLB charges a page walk once per page, not per instruction.
#[test]
fn itlb_walks_once_per_page() {
    let mut m = cl();
    let mut a = Assembler::new(0x2000);
    a.nop().ret();
    m.load_program(&a.assemble().unwrap());
    let before = m.counters(T0).read(PerfEvent::ItlbMisses);
    m.run_sequence(T0, &[Instr::Call { target: 0x2000 }]).unwrap();
    m.run_sequence(T0, &[Instr::Call { target: 0x2000 }]).unwrap();
    let walks = m.counters(T0).read(PerfEvent::ItlbMisses) - before;
    assert_eq!(walks, 1, "second call hits the iTLB");
}

/// Speculative wrong paths are bounded: a mistrained branch into a long
/// code run cannot execute more than the window allows.
#[test]
fn speculation_window_is_bounded() {
    let mut m = cl();
    let window = m.profile().spec.window_instrs as u64;
    let bounds = 0x9000u64;
    let mut a = Assembler::new(0x3000);
    // if R1 < [bounds]: fallthrough does 200 increments on R2
    a.mov_imm(Reg::R4, bounds)
        .load(Reg::R2, MemRef::base(Reg::R4))
        .cmp(Reg::R1, Reg::R2)
        .jge("skip");
    for _ in 0..200 {
        a.add_imm(Reg::R3, 1);
    }
    a.label("skip").ret();
    m.load_program(&a.assemble().unwrap());
    m.write_u64(Addr(bounds), 100);
    // Train not-taken (in bounds).
    for _ in 0..6 {
        m.call(T0, 0x3000, &[1]).unwrap();
    }
    m.flush_line(Addr(bounds));
    let r3_before = m.reg(T0, Reg::R3);
    m.call(T0, 0x3000, &[500]).unwrap(); // out of bounds: wrong path speculates
    assert_eq!(m.reg(T0, Reg::R3), r3_before, "wrong-path work must be rolled back");
    assert!(window < 200, "the window is smaller than the wrong-path run");
}

/// A machine clear invalidates the conflicting line from the L1i but not
/// from L2/LLC (the data stays cached).
#[test]
fn machine_clear_invalidates_l1i_only() {
    let mut m = cl();
    let mut a = Assembler::new(0x4000);
    a.nop().ret();
    m.load_program(&a.assemble().unwrap());
    m.run_sequence(T0, &[Instr::Call { target: 0x4000 }]).unwrap();
    assert!(m.residency(Addr(0x4000)).l1i);
    m.set_reg(T0, Reg::R1, 0x4000);
    m.run_sequence(T0, &[Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 }]).unwrap();
    let r = m.residency(Addr(0x4000));
    assert!(!r.l1i, "clear removes the L1i copy");
    assert!(r.l2 && r.llc, "shared levels keep the line");
}

/// A line still in a thread's fetch window conflicts after it has left
/// the L1i: a store to it machine-clears, and the clear empties both
/// windows, so a second store does not. Checked for a store from the
/// fetching thread and from its sibling, on the per-step reference tier
/// and through the fused probe tier.
#[test]
fn store_to_fetch_window_line_clears_once() {
    const ROUTINE: u64 = 0x4000;
    let mem = MemRef::base(Reg::R13);
    let store = CompiledProbe::compile(&[
        Instr::Mfence,
        Instr::Rdtsc { dst: Reg::R14 },
        Instr::StoreImm { mem, imm: 0x90 },
        Instr::Mfence,
        Instr::Rdtsc { dst: Reg::R15 },
    ])
    .expect("store probe compiles");
    let mut a = Assembler::new(ROUTINE);
    a.nop().ret();
    let routine = a.assemble().unwrap();
    for tier in [Tier::Reference, Tier::Fused] {
        for storer in [T0, T1] {
            let case = format!("{tier:?}, store from {storer:?}");
            let mut m = cl();
            m.set_tier(tier);
            m.load_program(&routine);
            m.call(T0, ROUTINE, &[]).unwrap();
            m.place_line(Addr(ROUTINE), Placement::L2);
            assert!(!m.residency(Addr(ROUTINE)).l1i, "{case}: line left the L1i");
            assert!(m.fetch_state(T0).1.contains(&ROUTINE), "{case}: line in T0's window");
            for _ in 0..2 {
                m.run_probes(storer, &store, &[Addr(ROUTINE)], &mut [0]).unwrap();
                let clears = m.counters(storer).read(PerfEvent::MachineClearsSmc);
                assert_eq!(clears, 1, "{case}: exactly one clear");
            }
            if tier == Tier::Fused {
                assert_eq!(m.counters(storer).read(PerfEvent::SimProbeFastPath), 2, "{case}");
            }
        }
    }
}

/// Executing a store to your own *data* never clears, even at high rates.
#[test]
fn data_stores_never_machine_clear() {
    let mut m = cl();
    let mut a = Assembler::new(0x5000);
    a.mov_imm(Reg::R2, 0x0070_0000)
        .label("l")
        .store(Reg::R3, MemRef::base(Reg::R2))
        .add_imm(Reg::R3, 1)
        .cmp_imm(Reg::R3, 500)
        .jne("l")
        .halt();
    m.load_program(&a.assemble().unwrap());
    m.start_program(T1, 0x5000, &[]);
    m.run_until_halt(T1, 100_000).unwrap();
    assert_eq!(m.counters(T1).read(PerfEvent::MachineClearsCount), 0);
}

/// AMD profiles expose the AMD counter set and no machine-clear events.
#[test]
fn amd_counters_on_clears() {
    let mut m = Machine::new(MicroArch::AmdRyzen5.profile());
    let mut a = Assembler::new(0x6000);
    a.nop().ret();
    m.load_program(&a.assemble().unwrap());
    m.run_sequence(T0, &[Instr::Call { target: 0x6000 }]).unwrap();
    m.set_reg(T0, Reg::R1, 0x6000);
    m.run_sequence(T0, &[Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 }]).unwrap();
    let c = m.counters(T0);
    assert_eq!(c.read(PerfEvent::MachineClearsCount), 0, "AMD exposes no clear events");
    assert_eq!(c.read(PerfEvent::AmdIcLinesInvalidated), 1);
    assert!(c.read(PerfEvent::AmdPipeStallBackPressure) > 0);
}

/// Inclusive LLC: filling 17 ways of one LLC set back-invalidates lines
/// out of the L1 caches too (visible via residency).
#[test]
fn llc_eviction_back_invalidates() {
    let mut m = cl();
    // LLC: 8192 sets, 16 ways; same LLC set stride = 8192*64 bytes.
    let stride = 8192u64 * 64;
    let base = 0x4000_0000u64;
    // Load 17 lines mapping to the same LLC set.
    for i in 0..17u64 {
        m.set_reg(T0, Reg::R1, base + i * stride);
        m.run_sequence(
            T0,
            &[Instr::Load { dst: Reg::R2, mem: MemRef::base(Reg::R1), size: MemSize::Quad }],
        )
        .unwrap();
    }
    let evicted = (0..17u64).filter(|i| !m.residency(Addr(base + i * stride)).llc).count();
    assert!(evicted >= 1, "one line must have left the LLC");
    for i in 0..17u64 {
        let r = m.residency(Addr(base + i * stride));
        if !r.llc {
            assert!(!r.l1d && !r.l2, "inclusive: evicted line left the core entirely");
        }
    }
}

/// Spurious-eviction noise perturbs the L1i over time.
#[test]
fn noise_evictions_disturb_primed_lines() {
    let mut m = Machine::with_noise(
        MicroArch::CascadeLake.profile(),
        NoiseConfig { timing_jitter: 0, evictions_per_kcycle: 5.0 },
        1,
    );
    let mut a = Assembler::new(0x8000);
    for i in 0..64u64 {
        a.org(0x8000 + i * 64).nop().ret();
    }
    m.load_program(&a.assemble().unwrap());
    for i in 0..64u64 {
        m.run_sequence(T0, &[Instr::Call { target: 0x8000 + i * 64 }]).unwrap();
    }
    m.advance(T0, 200_000).unwrap();
    let still_resident = (0..64u64).filter(|i| m.residency(Addr(0x8000 + i * 64)).l1i).count();
    assert!(still_resident < 64, "heavy noise must evict something");
}

/// Parked victims stop consuming simulation work.
#[test]
fn park_stops_a_victim() {
    let mut m = cl();
    let mut a = Assembler::new(0xa000);
    a.label("spin").add_imm(Reg::R2, 1).jmp("spin");
    m.load_program(&a.assemble().unwrap());
    m.start_program(T1, 0xa000, &[]);
    m.advance(T0, 5_000).unwrap();
    assert_eq!(m.state(T1), ThreadState::Running);
    m.park(T1);
    assert_eq!(m.state(T1), ThreadState::Idle);
    let r2 = m.reg(T1, Reg::R2);
    m.advance(T0, 5_000).unwrap();
    assert_eq!(m.reg(T1, Reg::R2), r2, "parked victims make no progress");
}

/// Probe timings on unsupported instructions fail identically through the
/// sequence API and the characterization API.
#[test]
fn unsupported_errors_are_consistent() {
    let mut m = Machine::new(MicroArch::Broadwell.profile());
    m.set_reg(T0, Reg::R1, 0x1000);
    let e1 = m.run_sequence(T0, &[Instr::Clwb { mem: MemRef::base(Reg::R1) }]).unwrap_err();
    assert_eq!(e1, smack_uarch::StepError::Unsupported { kind: ProbeKind::Clwb });
}

/// Placement helper puts lines exactly where asked, for all placements.
#[test]
fn placement_matrix_is_exact() {
    let mut m = cl();
    let line = Addr(0xb000);
    for p in Placement::ALL {
        m.place_line(line, p);
        let r = m.residency(line);
        match p {
            Placement::L1i => assert!(r.l1i && !r.l1d && r.l2 && r.llc),
            Placement::L1d => assert!(!r.l1i && r.l1d && r.l2 && r.llc),
            Placement::L2 => assert!(!r.l1i && !r.l1d && r.l2 && r.llc),
            Placement::Llc => assert!(!r.l1i && !r.l1d && !r.l2 && r.llc),
            Placement::DramOnly => assert!(!r.cached_anywhere()),
        }
    }
}
