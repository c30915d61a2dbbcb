//! The decoded tiers are an *optimization*, never a semantic change:
//! for arbitrary programs, executing through the pre-decoded side table
//! must produce exactly the architectural state, clocks, and performance
//! counters of the per-step `BTreeMap` reference tier. The same holds
//! under injected eviction noise, across mid-run loads of fresh code (each
//! recompiles the table and may shift every decoded index), and for two
//! threads driven in one run or one step at a time. The fused tier is held to the per-step decoded tier
//! the same way (the `fused_probes` module). Cache state is compared in
//! LRU order, not only residency (see [`lru_sweep`]).

use proptest::prelude::*;
use smack_uarch::asm::{Assembler, Program};
use smack_uarch::isa::{MemRef, Reg};
use smack_uarch::{
    Addr, Machine, MicroArch, NoiseConfig, Placement, Residency, ThreadId, ThreadState, Tier,
};

const T0: ThreadId = ThreadId::T0;
const T1: ThreadId = ThreadId::T1;
const CODE_BASE: u64 = 0x10_0000;
const HELPER_BASE: u64 = 0x1f_0000;
const DATA_BASE: u64 = 0x40_0000;

/// One random body instruction. Register operands stay in `R0..=R7`;
/// `R8` holds the data base, `R9` the helper address, `R10` the loop
/// counter, so control and addressing stay well-formed no matter what the
/// generator draws.
#[derive(Clone, Debug)]
enum BodyOp {
    Alu(u8, u8, u8),
    MovImm(u8, u64),
    Load(u8, u8),
    Store(u8, u8),
    CmpImm(u8, u64),
    /// `jcc` skipping the next op when the condition holds — a forward
    /// branch, so generated programs always terminate.
    SkipNext(u8),
    /// `call` to the fixed helper routine (static target).
    CallHelper,
    /// `call *%r9` (dynamic target, resolved through the `pc → index`
    /// map every time).
    CallHelperReg,
    Clflush(u8),
    Nop,
    /// A bounded inner loop (backward `jne`): the taken branch chases its
    /// pre-resolved target index back to the loop head every iteration.
    InnerLoop(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (0u8..5, 0u8..8, 0u8..8).prop_map(|(k, d, s)| BodyOp::Alu(k, d, s)),
        (0u8..8, any::<u64>()).prop_map(|(d, imm)| BodyOp::MovImm(d, imm)),
        (0u8..8, 0u8..16).prop_map(|(d, slot)| BodyOp::Load(d, slot)),
        (0u8..8, 0u8..16).prop_map(|(s, slot)| BodyOp::Store(s, slot)),
        (0u8..8, 0u64..4).prop_map(|(r, imm)| BodyOp::CmpImm(r, imm)),
        (0u8..5).prop_map(BodyOp::SkipNext),
        Just(BodyOp::CallHelper),
        Just(BodyOp::CallHelperReg),
        (0u8..16).prop_map(BodyOp::Clflush),
        Just(BodyOp::Nop),
        (0u8..8, 2u8..5).prop_map(|(r, n)| BodyOp::InnerLoop(r, n)),
    ]
}

fn reg(i: u8) -> Reg {
    Reg::from_index(i as usize)
}

fn cond(i: u8) -> smack_uarch::isa::Cond {
    use smack_uarch::isa::Cond;
    [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le][i as usize % 5]
}

/// Assemble `ops` into a program: a two-iteration outer loop (backward
/// branch) around the random body, with a `ret`-terminated helper routine
/// off to the side for the call ops.
fn build_program(ops: &[BodyOp]) -> Program {
    let mut a = Assembler::new(CODE_BASE);
    a.mov_imm(Reg::R8, DATA_BASE).mov_label(Reg::R9, "helper").mov_imm(Reg::R10, 0).label("loop");
    // Each `SkipNext` at index `i` jumps to a label placed after op
    // `i + 1` (or straight to the loop epilogue for a trailing skip).
    // Consecutive skips may stack several labels at one point.
    let mut labels_after: Vec<Vec<String>> = vec![Vec::new(); ops.len()];
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, BodyOp::SkipNext(_)) && i + 1 < ops.len() {
            labels_after[i + 1].push(format!("skip{i}"));
        }
    }
    for (i, op) in ops.iter().enumerate() {
        match *op {
            BodyOp::Alu(kind, d, s) => {
                let (d, s) = (reg(d), reg(s));
                match kind {
                    0 => a.add(d, s),
                    1 => a.sub(d, s),
                    2 => a.mul(d, s),
                    3 => a.xor(d, s),
                    _ => a.or(d, s),
                };
            }
            BodyOp::MovImm(d, imm) => {
                a.mov_imm(reg(d), imm);
            }
            BodyOp::Load(d, slot) => {
                a.load(reg(d), MemRef::disp(Reg::R8, slot as i64 * 8));
            }
            BodyOp::Store(s, slot) => {
                a.store(reg(s), MemRef::disp(Reg::R8, slot as i64 * 8));
            }
            BodyOp::CmpImm(r, imm) => {
                a.cmp_imm(reg(r), imm);
            }
            BodyOp::SkipNext(c) => {
                if i + 1 < ops.len() {
                    a.jcc(cond(c), format!("skip{i}"));
                } else {
                    // A trailing skip jumps to the loop epilogue.
                    a.jcc(cond(c), "epilogue");
                }
            }
            BodyOp::CallHelper => {
                a.call("helper");
            }
            BodyOp::CallHelperReg => {
                a.call_reg(Reg::R9);
            }
            BodyOp::Clflush(slot) => {
                a.clflush(MemRef::disp(Reg::R8, slot as i64 * 8));
            }
            BodyOp::Nop => {
                a.nop();
            }
            BodyOp::InnerLoop(r, n) => {
                // R11 is reserved as the inner counter, so nesting with
                // the outer loop (R10) stays well-formed.
                a.mov_imm(Reg::R11, 0)
                    .label(&format!("inner{i}"))
                    .add_imm(reg(r), 1)
                    .add_imm(Reg::R11, 1)
                    .cmp_imm(Reg::R11, n as u64)
                    .jne(format!("inner{i}"));
            }
        }
        for l in &labels_after[i] {
            a.label(l);
        }
    }
    a.label("epilogue").add_imm(Reg::R10, 1).cmp_imm(Reg::R10, 2).jne("loop").halt();
    a.org(HELPER_BASE).label("helper").add(Reg::R0, Reg::R1).nop().ret();
    a.assemble().expect("generated program assembles")
}

/// The residency of `lines`, then again after each of a sweep of fresh
/// lines through every L1i, L1d, L2 and LLC set a line of `lines` maps to:
/// `ways` insertions per set, one at a time, so the sweep evicts each
/// set's lines in LRU order. Two machines whose caches hold the same lines
/// in a different LRU order (an engine path that skips a re-stamp, say)
/// give different sweeps, where residency alone agrees until some later
/// eviction. Consumes the cache state, so call it last.
fn lru_sweep(m: &mut Machine, lines: &[u64]) -> Vec<Residency> {
    let h = m.profile().hierarchy;
    let residency = |m: &Machine| lines.iter().map(|&l| m.residency(Addr(l))).collect::<Vec<_>>();
    let mut out = residency(m);
    // One fresh region per level, clear of every address the tests use.
    for (region, geom, placement) in [
        (0x4000_0000, h.l1i, Placement::L1i),
        (0x4800_0000, h.l1d, Placement::L1d),
        (0x5000_0000, h.l2, Placement::L2),
        (0x6000_0000, h.llc, Placement::Llc),
    ] {
        let mut sets: Vec<usize> = lines.iter().map(|&l| Addr(l).set_index(geom.sets)).collect();
        sets.sort_unstable();
        sets.dedup();
        for set in sets {
            for way in 0..geom.ways {
                m.place_line(Addr(region + ((way * geom.sets + set) * 64) as u64), placement);
                out.extend(residency(m));
            }
        }
    }
    out
}

/// Everything the fast path must preserve, captured after a run.
#[derive(PartialEq, Debug)]
struct Outcome {
    regs: Vec<u64>,
    clock_t0: u64,
    clock_t1: u64,
    counters_t0: smack_uarch::CounterSnapshot,
    counters_t1: smack_uarch::CounterSnapshot,
    data: Vec<u8>,
    /// The program's code, helper and data lines through [`lru_sweep`].
    lru: Vec<Residency>,
}

impl Outcome {
    fn capture(m: &mut Machine) -> Outcome {
        let code = (0..16).map(|i| CODE_BASE + i * 64);
        let lines: Vec<u64> =
            code.chain([HELPER_BASE, HELPER_BASE + 64, DATA_BASE, DATA_BASE + 64]).collect();
        Outcome {
            regs: (0..Reg::COUNT).map(|i| m.reg(T0, Reg::from_index(i))).collect(),
            clock_t0: m.clock(T0),
            clock_t1: m.clock(T1),
            counters_t0: m.counters(T0).snapshot(),
            counters_t1: m.counters(T1).snapshot(),
            data: m.read_bytes(Addr(DATA_BASE), 16 * 8),
            lru: lru_sweep(m, &lines),
        }
    }
}

/// The oracle every run is compared against.
const REFERENCE: Tier = Tier::Reference;
/// The tier under test: the shipped one, which steps whole programs
/// through the decoded table.
const DECODED: Tier = Tier::Fused;

fn machine(tier: Tier, noise_seed: Option<u64>) -> Machine {
    let profile = MicroArch::CascadeLake.profile();
    let mut m = match noise_seed {
        Some(seed) => Machine::with_noise(profile, NoiseConfig::realistic(), seed),
        None => Machine::new(profile),
    };
    m.set_tier(tier);
    m
}

/// Run `prog` to completion under the given interpreter configuration.
fn run(prog: &Program, tier: Tier, noise_seed: Option<u64>) -> Outcome {
    let mut m = machine(tier, noise_seed);
    m.load_program(prog);
    m.start_program(T0, prog.entry(), &[]);
    m.run_until_halt(T0, 1_000_000).expect("program halts");
    Outcome::capture(&mut m)
}

/// A fresh routine at new addresses, loaded while a program runs: below
/// the program (every decoded index shifts), between the program and its
/// helper (the helper's indices shift), or on the line after the helper.
fn fresh_routine(kind: u8) -> Program {
    let origin = [0x1_0000, 0x18_0000, HELPER_BASE + 0x40][kind as usize % 3];
    let mut a = Assembler::new(origin);
    a.label("fresh").xor(Reg::R0, Reg::R1).add_imm(Reg::R0, 5).ret();
    a.assemble().expect("fresh routine assembles")
}

/// Run `prog`, load `fresh` after `at_step` engine steps, and run to
/// completion.
fn run_with_load(prog: &Program, fresh: &Program, at_step: u64, tier: Tier) -> Outcome {
    let mut m = machine(tier, None);
    m.load_program(prog);
    m.start_program(T0, prog.entry(), &[]);
    m.run_burst(T0, at_step).expect("prefix runs");
    m.load_program(fresh);
    m.run_until_halt(T0, 1_000_000).expect("program halts");
    Outcome::capture(&mut m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decoded vs reference interpreter: both retire the same
    /// architecture, time, and counter state for arbitrary programs
    /// (including backward inner-loop branches).
    #[test]
    fn prop_decoded_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let prog = build_program(&ops);
        let reference = run(&prog, REFERENCE, None);
        prop_assert_eq!(&run(&prog, DECODED, None), &reference, "decoded diverged");
    }

    /// A load recompiles the side table under a running thread: loading
    /// a fresh routine mid-run, at addresses that shift the running code's
    /// decoded indices or not, must leave the decoded tier bit-identical to
    /// the map-lookup reference.
    #[test]
    fn prop_midrun_loads_match_reference(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        kind in 0u8..3,
        at_step in 1u64..150,
    ) {
        let prog = build_program(&ops);
        let fresh = fresh_routine(kind);
        let reference = run_with_load(&prog, &fresh, at_step, REFERENCE);
        let got = run_with_load(&prog, &fresh, at_step, DECODED);
        prop_assert_eq!(&got, &reference, "decoded diverged after load {}", kind);
    }

    /// Injected eviction noise is drawn from the thread clocks: noisy runs
    /// must agree across both interpreter tiers too.
    #[test]
    fn prop_noisy_runs_match_reference(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        let prog = build_program(&ops);
        let reference = run(&prog, REFERENCE, Some(seed));
        prop_assert_eq!(&run(&prog, DECODED, Some(seed)), &reference, "decoded diverged under noise");
    }
}

/// Fused probe execution is held to the same bar as the decoded tier:
/// running a probe template through [`Machine::run_probes`] with fusion
/// enabled must be bit-identical — registers, both clocks, memory,
/// timings, cache contents in LRU order and hardware counters — to the
/// per-step injected sequence, across probe classes, cold placements,
/// injected noise, waits, mid-run loads of fresh code, and a victim
/// co-running on the sibling thread (which may fault mid-probe).
mod fused_probes {
    use super::*;
    use smack_uarch::isa::{Instr, MemRef, MemSize};
    use smack_uarch::{CompiledProbe, PerfEvent, SeqOutcome, StepError};

    /// The probed line holds a real routine, so write-class probes hit a
    /// resident instruction line (the SMC machine-clear path) and
    /// `Execute` actions can call it.
    const TARGET: u64 = 0x30_0000;

    /// The co-running victim's code: its loop line shares L1i set 0 with
    /// `TARGET`, so victim fetches and attacker calls evict each other.
    const VICTIM_BASE: u64 = 0x50_0000;
    const VICTIM_DATA: u64 = 0x60_0000;

    const MEM: MemRef = MemRef { base: Reg::R13, disp: 0 };

    /// Every routine starts with `nop`: the store probe writes `0x90` at
    /// offset 0, so the first byte stays a valid instruction no matter how
    /// probes and executes interleave (same trick the covert channels'
    /// oracle pages use).
    fn oracle(kind: u8) -> Program {
        let mut a = Assembler::new(TARGET);
        match kind % 3 {
            0 => a.nop().nop().ret(),
            1 => a.nop().add(Reg::R0, Reg::R1).ret(),
            _ => a.nop().add_imm(Reg::R0, 7).nop().ret(),
        };
        a.assemble().expect("oracle assembles")
    }

    /// The nine timed probe operations of paper Listing 2: eight memory
    /// operations on the target line, and the `Execute` probe's
    /// `call *%r13`, which fuses only when the oracle is `nop*; ret`.
    fn probe_op(op: u8) -> Instr {
        match op % 9 {
            0 => Instr::Load { dst: Reg::R12, mem: MEM, size: MemSize::Quad },
            1 => Instr::StoreImm { mem: MEM, imm: 0x90 },
            2 => Instr::LockInc { mem: MEM },
            3 => Instr::Clflush { mem: MEM },
            4 => Instr::Clflushopt { mem: MEM },
            5 => Instr::Clwb { mem: MEM },
            6 => Instr::PrefetchT0 { mem: MEM },
            7 => Instr::PrefetchNta { mem: MEM },
            _ => Instr::CallReg { target: Reg::R13 },
        }
    }

    const EXECUTE_OP: u8 = 8;

    fn template(op: u8) -> [Instr; 5] {
        [
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R14 },
            probe_op(op),
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R15 },
        ]
    }

    /// One probe of the line `R13` holds: [`Machine::run_probes`] with
    /// that one target.
    fn run_probe(m: &mut Machine, probe: &CompiledProbe) -> Result<SeqOutcome, StepError> {
        m.run_probes(T0, probe, &[Addr(m.reg(T0, Reg::R13))], &mut [0])
    }

    fn placement(p: u8) -> Placement {
        [Placement::L1i, Placement::L1d, Placement::L2, Placement::Llc, Placement::DramOnly]
            [p as usize % 5]
    }

    /// A modexp-shaped victim for T1: `iters` iterations of a loop that
    /// calls a multiply routine (load, multiply, store to its data) and,
    /// every eighth iteration, stores into the attacker's target line — an
    /// SMC machine clear whenever that line is L1i-resident, which stalls
    /// T0 and resets its fetch mid-call. The `and`-masked branch resolves
    /// late, so the victim also speculates. After the loop it halts or,
    /// with `fault`, calls into unmapped memory.
    fn victim(iters: u64, fault: bool) -> Program {
        let mut a = Assembler::new(VICTIM_BASE);
        a.mov_imm(Reg::R8, VICTIM_DATA)
            .mov_imm(Reg::R9, TARGET)
            .mov_imm(Reg::R0, 0)
            .mov_imm(Reg::R3, 7)
            .label("loop")
            .call("mul")
            .add_imm(Reg::R0, 1)
            .mov(Reg::R2, Reg::R0)
            .and(Reg::R2, Reg::R3)
            .cmp_imm(Reg::R2, 0)
            .jne("skip")
            .store(Reg::R0, MemRef::disp(Reg::R9, 40))
            .label("skip")
            .cmp_imm(Reg::R0, iters)
            .jne("loop");
        if fault {
            a.mov_imm(Reg::R4, 0xdead_0000).call_reg(Reg::R4);
        } else {
            a.halt();
        }
        a.org(VICTIM_BASE + 0xc0)
            .label("mul")
            .load(Reg::R1, MemRef::base(Reg::R8))
            .mul(Reg::R1, Reg::R0)
            .store(Reg::R1, MemRef::disp(Reg::R8, 8))
            .ret();
        a.assemble().expect("victim assembles")
    }

    /// The loop-heavy victim's busy routine: `emit_routine`'s shape — a
    /// logging prologue, then counted turns of `delay` — with its body on
    /// `VICTIM_BASE`'s line, in `TARGET`'s L1i set, and its tail on the
    /// next line. The driver calls it from a line of its own.
    const BUSY_DRIVER: u64 = VICTIM_BASE + 0x200;
    const BUSY_TURNS: u64 = 40;
    /// The body's first instruction follows the 19-byte prologue.
    const BUSY_DELAY_PC: u64 = VICTIM_BASE + 19;

    fn busy_victim(calls: u64) -> Program {
        let mut a = Assembler::new(BUSY_DRIVER);
        a.mov_imm(Reg::R10, VICTIM_DATA)
            .mov_imm(Reg::R4, calls)
            .label("again")
            .call("routine")
            .add_imm(Reg::R4, -1)
            .cmp_imm(Reg::R4, 0)
            .jne("again")
            .halt();
        a.org(VICTIM_BASE)
            .label("routine")
            .push(Instr::StoreImm { mem: MemRef::base(Reg::R10), imm: 1 })
            .add_imm(Reg::R10, 1)
            .mov_imm(Reg::R11, BUSY_TURNS)
            .label("body")
            .delay(64)
            .add_imm(Reg::R11, -1)
            .cmp_imm(Reg::R11, 0)
            .je("done")
            .jmp("tail");
        a.org(VICTIM_BASE + 0x40).label("tail").jmp("body").label("done").ret();
        let p = a.assemble().expect("busy victim assembles");
        assert_eq!(p.label("body"), Some(BUSY_DELAY_PC));
        p
    }

    /// Attacker ways clear of the busy loop: L1i set 40 (the loop holds
    /// sets 0 and 1), with L2 and LLC hint entries, prefetch targets'
    /// included, away from the loop's.
    const CLEAR_WAYS: [u64; 4] = [0x32_0a00, 0x33_0a00, 0x34_0a00, 0x35_0a00];

    /// An eviction set on the busy loop's own L1i set 0: fetched in a
    /// batch, its ways re-stamp and evict the loop's lines, so a batch
    /// that carried the loop over them would reorder the set.
    const LOOP_SET_WAYS: [u64; 8] =
        [0x38_0000, 0x39_0000, 0x3a_0000, 0x3b_0000, 0x3c_0000, 0x3d_0000, 0x3e_0000, 0x3f_0000];

    /// A data eviction set on `TARGET`'s L1d set (set 0), each line in an
    /// L2 and LLC set of its own: loading some of its ways evicts the set's
    /// least recently used lines, so where a probe left `TARGET` in the
    /// set's LRU order decides whether it survives.
    const DATA_WAYS: [u64; 8] =
        [0x70_1000, 0x70_2000, 0x70_3000, 0x70_4000, 0x70_5000, 0x70_6000, 0x70_7000, 0x70_8000];

    /// `nop; nop; ret` at every clear and loop-set way, except that with
    /// `break_way` the second clear way is `nop; add; ret`, a callee the
    /// fused tier refuses.
    fn attacker_ways(break_way: bool) -> Program {
        let mut a = Assembler::new(CLEAR_WAYS[0]);
        for &w in CLEAR_WAYS.iter().chain(&LOOP_SET_WAYS) {
            a.org(w).nop();
            if break_way && w == CLEAR_WAYS[1] {
                a.add(Reg::R0, Reg::R1);
            } else {
                a.nop();
            }
            a.ret();
        }
        a.assemble().expect("ways assemble")
    }

    /// The co-running program on T1.
    #[derive(Copy, Clone, Debug)]
    enum Victim {
        /// [`victim`]: `iters` iterations, then halt or (`fault`) crash.
        Modexp { iters: u64, fault: bool },
        /// [`busy_victim`], calling its routine `calls` times.
        Busy { calls: u64 },
    }

    #[derive(Copy, Clone, Debug)]
    enum Action {
        /// Optionally re-place the target line, then run one timed probe.
        Probe { op: u8, place: Option<u8> },
        /// Prime→probe busy-wait ([`Machine::advance`] fast path).
        Wait(u16),
        /// Execute (call) the target line via a one-target
        /// [`Machine::run_calls`] — the priming primitive, taking the
        /// fused-call tier when the routine's shape allows — which makes
        /// the line L1i-resident, so the next write-class probe takes the
        /// machine-clear path.
        Execute,
        /// Execute the target line `n` times through the *batched*
        /// [`Machine::run_calls`] entry (an eviction set primes its ways
        /// this way).
        ExecuteBatch(u8),
        /// Load a [`fresh_routine`] between actions, as table5's attack
        /// windows load theirs while the co-tenant runs. Every variant
        /// lies below `TARGET` and the victim, so their decoded indices
        /// shift under the running sibling.
        Load(u8),
        /// One batched entry over `n` lines — the clear ways, or ways of
        /// the busy loop's and `TARGET`'s L1i set: [`Machine::run_calls`],
        /// or [`Machine::run_probes`] of the `Execute` probe (`probe`).
        Batch { probe: bool, clear: bool, n: u8 },
        /// Load the first `n` [`DATA_WAYS`] per-step, filling `TARGET`'s
        /// L1d set.
        LoadData(u8),
    }

    fn action_strategy() -> impl Strategy<Value = Action> {
        // Probes twice, so roughly half the drawn actions are probes.
        // `place >= 5` means "leave the line where the last action put it".
        let probe = || {
            (0u8..9, 0u8..8)
                .prop_map(|(op, place)| Action::Probe { op, place: (place < 5).then_some(place) })
        };
        prop_oneof![
            probe(),
            probe(),
            (0u16..3000).prop_map(Action::Wait),
            Just(Action::Execute),
            (1u8..4).prop_map(Action::ExecuteBatch),
            (0u8..3).prop_map(Action::Load),
            (1u8..9).prop_map(Action::LoadData),
            (1u8..9).prop_map(|n| Action::Batch { probe: false, clear: false, n }),
        ]
    }

    /// Batched calls and probe rounds over clear or loop-set lines,
    /// between waits, single probes and mid-run loads.
    fn batch_action_strategy() -> impl Strategy<Value = Action> {
        let batch = || {
            (any::<bool>(), 0u8..4, 1u8..9).prop_map(|(probe, clear, n)| Action::Batch {
                probe,
                clear: clear > 0,
                n,
            })
        };
        prop_oneof![
            batch(),
            batch(),
            batch(),
            (0u16..3000).prop_map(Action::Wait),
            action_strategy(),
        ]
    }

    /// How a run is set up: injected noise `(config, seed)`, an optional
    /// co-running victim started on T1, and whether the second clear way
    /// is a callee the fused tier refuses ([`attacker_ways`]).
    #[derive(Copy, Clone, Debug, Default)]
    struct Setup {
        noise: Option<(NoiseConfig, u64)>,
        victim: Option<Victim>,
        break_way: bool,
    }

    /// An eviction every ~250 cycles: frequent enough that the order of
    /// the two threads' noise draws shows in almost every run.
    const HEAVY_NOISE: NoiseConfig = NoiseConfig { timing_jitter: 8, evictions_per_kcycle: 4.0 };

    /// Everything the fused tier must preserve, plus the fast-path /
    /// fallback counts (compared separately — they are the only counters
    /// allowed to differ between the two configurations).
    #[derive(PartialEq, Debug)]
    struct ProbeOutcome {
        regs: Vec<u64>,
        states: (ThreadState, ThreadState),
        clock_t0: u64,
        clock_t1: u64,
        timings: Vec<(u64, u64)>,
        mem: Vec<u8>,
        /// The target, victim and attacker-way lines through
        /// [`lru_sweep`](super::lru_sweep).
        lru: Vec<Residency>,
        hw_counters: Vec<(&'static str, u64)>,
        /// Each thread's streamed line and fetch window
        /// ([`Machine::fetch_state`]): which stores machine-clear.
        fetch: Vec<(u64, [u64; 2])>,
        err: Option<String>,
    }

    /// Fused-tier bookkeeping of one run.
    #[derive(Copy, Clone, Debug, Default)]
    struct Counts {
        fast: u64,
        fallback: u64,
        /// Fuse-eligible attempts (probes plus calls): each bumps exactly
        /// one of `fast` / `fallback`.
        attempts: u64,
        /// Memory-op probes (every class but `Execute`) that ran.
        memory_probes: u64,
        /// Victim instructions the loop tier retired in closed form.
        loop_retired: u64,
        /// Batches that carried the victim ([`PerfEvent::SimBatchCarried`]).
        carried: u64,
    }

    /// Run `actions` on a fresh machine and capture the observable state.
    /// Errors (a victim fault, or the victim exhausting a call's step
    /// budget) stop the run; both configurations must stop at the same
    /// action with the same error and the same partial state.
    fn run_actions(
        actions: &[Action],
        oracle_kind: u8,
        fused: bool,
        setup: Setup,
    ) -> (ProbeOutcome, Counts) {
        let profile = MicroArch::CascadeLake.profile();
        let mut m = match setup.noise {
            Some((noise, seed)) => Machine::with_noise(profile, noise, seed),
            None => Machine::new(profile),
        };
        m.set_tier(if fused { Tier::Fused } else { Tier::Decoded });
        m.load_program(&oracle(oracle_kind));
        m.load_program(&attacker_ways(setup.break_way));
        for &w in CLEAR_WAYS.iter().chain(&LOOP_SET_WAYS).chain(&DATA_WAYS) {
            m.warm_tlb(T0, Addr(w));
        }
        if let Some(kind) = setup.victim {
            let v = match kind {
                Victim::Modexp { iters, fault } => victim(iters, fault),
                Victim::Busy { calls } => busy_victim(calls),
            };
            m.load_program(&v);
            m.start_program(T1, v.entry(), &[]);
        }
        m.warm_tlb(T0, Addr(TARGET));
        m.set_reg(T0, Reg::R13, TARGET);
        let mut timings = Vec::new();
        let mut err = None;
        let mut counts = Counts::default();
        for action in actions {
            let r: Result<(), StepError> = match *action {
                Action::Probe { op, place } => {
                    if let Some(p) = place {
                        m.place_line(Addr(TARGET), placement(p));
                    }
                    let probe =
                        CompiledProbe::compile(&template(op)).expect("probe template compiles");
                    counts.attempts += 1;
                    let r = run_probe(&mut m, &probe);
                    if r.is_ok() && op % 9 != EXECUTE_OP {
                        counts.memory_probes += 1;
                    }
                    r.map(|out| timings.push((out.cycles, out.end_clock)))
                }
                Action::Wait(cycles) => m.advance(T0, cycles as u64),
                Action::Execute => {
                    counts.attempts += 1;
                    m.run_calls(T0, &[Addr(TARGET)]).map(|_| ())
                }
                Action::ExecuteBatch(n) => {
                    counts.attempts += n as u64;
                    let targets = [Addr(TARGET); 3];
                    m.run_calls(T0, &targets[..n as usize]).map(|_| ())
                }
                Action::Load(kind) => {
                    m.load_program(&fresh_routine(kind));
                    Ok(())
                }
                Action::LoadData(n) => {
                    m.set_reg(T0, Reg::R1, DATA_WAYS[0]);
                    let loads: Vec<Instr> = DATA_WAYS[..n as usize]
                        .iter()
                        .map(|&w| {
                            let mem = MemRef::disp(Reg::R1, (w - DATA_WAYS[0]) as i64);
                            Instr::Load { dst: Reg::R2, mem, size: MemSize::Quad }
                        })
                        .collect();
                    m.run_sequence(T0, &loads).map(|_| ())
                }
                Action::Batch { probe, clear, n } => {
                    let ways: &[u64] = if clear { &CLEAR_WAYS } else { &LOOP_SET_WAYS };
                    let lines: Vec<Addr> =
                        (0..n as usize).map(|i| Addr(ways[i % ways.len()])).collect();
                    counts.attempts += n as u64;
                    if probe {
                        let execute = CompiledProbe::compile(&template(EXECUTE_OP)).unwrap();
                        let mut out = vec![0; lines.len()];
                        let r = m.run_probes(T0, &execute, &lines, &mut out);
                        let clock = m.clock(T0);
                        timings.extend(out.iter().map(|&t| (t, clock)));
                        r.map(|_| ())
                    } else {
                        m.run_calls(T0, &lines).map(|_| ())
                    }
                }
            };
            if let Err(e) = r {
                err = Some(e.to_string());
                break;
            }
        }
        let mut hw_counters = Vec::new();
        for tid in [T0, T1] {
            for e in PerfEvent::ALL {
                if !e.is_sim() {
                    hw_counters.push((e.name(), m.counters(tid).read(e)));
                }
            }
        }
        counts.fast = m.counters(T0).read(PerfEvent::SimProbeFastPath);
        counts.fallback = m.counters(T0).read(PerfEvent::SimProbeFallback);
        counts.loop_retired = m.counters(T1).read(PerfEvent::SimLoopRetired);
        counts.carried = m.counters(T0).read(PerfEvent::SimBatchCarried);
        let mut lines =
            vec![TARGET, VICTIM_BASE, VICTIM_BASE + 0x40, VICTIM_BASE + 0xc0, VICTIM_DATA];
        lines.extend(CLEAR_WAYS.iter().chain(&LOOP_SET_WAYS).chain(&DATA_WAYS));
        let mut mem = m.read_bytes(Addr(TARGET), 64);
        mem.extend(m.read_bytes(Addr(VICTIM_DATA), 16));
        let outcome = ProbeOutcome {
            regs: [T0, T1]
                .iter()
                .flat_map(|&tid| (0..Reg::COUNT).map(move |i| (tid, Reg::from_index(i))))
                .map(|(tid, r)| m.reg(tid, r))
                .collect(),
            states: (m.state(T0), m.state(T1)),
            clock_t0: m.clock(T0),
            clock_t1: m.clock(T1),
            timings,
            mem,
            hw_counters,
            fetch: vec![m.fetch_state(T0), m.fetch_state(T1)],
            lru: lru_sweep(&mut m, &lines),
            err,
        };
        (outcome, counts)
    }

    /// `nop.nop.ret` (oracle kind 0) is exactly the fusable call shape;
    /// the other oracle kinds make calls and `Execute` probes fall back.
    const FUSABLE_ORACLE: u8 = 0;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Fused vs per-step probe execution over arbitrary interleavings
        /// of probes, placements, waits, executes, and mid-run loads.
        #[test]
        fn prop_fused_probes_match_per_step(
            actions in proptest::collection::vec(action_strategy(), 1..40),
            oracle_kind in 0u8..3,
        ) {
            let setup = Setup::default();
            let (reference, r) = run_actions(&actions, oracle_kind, false, setup);
            let (fused, f) = run_actions(&actions, oracle_kind, true, setup);
            prop_assert_eq!(&fused, &reference, "fused probes diverged");
            // With fusion off nothing fuses, and every attempt (probe or
            // call) is refused up front.
            prop_assert_eq!(r.fast, 0);
            prop_assert_eq!(r.fallback, r.attempts, "every attempt refused per-step");
            // With fusion on (no tracing) memory probes always fuse; calls
            // and `Execute` probes fall back exactly when the routine's
            // shape is not `nop*; ret` on one line.
            prop_assert!(f.fast >= f.memory_probes, "fast {} < {} probes", f.fast, f.memory_probes);
            prop_assert_eq!(f.fast + f.fallback, f.attempts);
            if oracle_kind == FUSABLE_ORACLE {
                prop_assert_eq!(f.fallback, 0, "fusable oracle never falls back");
            }
        }

        /// Same equivalence under injected eviction noise: the fused tier
        /// must draw per-instruction noise in exactly the per-step order.
        #[test]
        fn prop_fused_probes_match_under_noise(
            actions in proptest::collection::vec(action_strategy(), 1..30),
            oracle_kind in 0u8..3,
            seed in any::<u64>(),
        ) {
            let setup = Setup { noise: Some((NoiseConfig::realistic(), seed)), victim: None, ..Setup::default() };
            let (reference, _) = run_actions(&actions, oracle_kind, false, setup);
            let (fused, f) = run_actions(&actions, oracle_kind, true, setup);
            prop_assert_eq!(&fused, &reference, "fused probes diverged under noise");
            prop_assert_eq!(f.fast + f.fallback, f.attempts);
        }

        /// The co-running axis: a modexp-style victim on T1 (storing to its
        /// data, speculating, and machine-clearing the attacker's line)
        /// while T0 mixes batched calls, probes of every class including
        /// `Execute`, and waits, under heavy eviction noise (so the order of
        /// the two threads' noise draws matters). The victim may halt partway
        /// through; the fused tier must catch it up at exactly the
        /// per-step points either way.
        #[test]
        fn prop_fused_match_with_corunning_sibling(
            actions in proptest::collection::vec(action_strategy(), 1..30),
            oracle_kind in 0u8..3,
            seed in any::<u64>(),
            iters in 1u64..3000,
        ) {
            let victim = Some(Victim::Modexp { iters, fault: false });
            let setup = Setup { noise: Some((HEAVY_NOISE, seed)), victim, ..Setup::default() };
            let (reference, _) = run_actions(&actions, oracle_kind, false, setup);
            let (fused, f) = run_actions(&actions, oracle_kind, true, setup);
            prop_assert_eq!(&fused, &reference, "fused tier diverged with a co-running sibling");
            prop_assert_eq!(f.fast + f.fallback, f.attempts);
            if oracle_kind == FUSABLE_ORACLE {
                prop_assert_eq!(f.fallback, 0, "a running sibling forced a fallback");
            }
        }

        /// The loop tier's axis: a victim busy in counted delay loops
        /// whose body line shares `TARGET`'s L1i set, so attacker calls
        /// and probes keep evicting it, under heavy eviction noise, while
        /// fresh code loads between actions. Catch-ups that retire turns in
        /// closed form must land exactly where stepping lands.
        #[test]
        fn prop_fused_match_with_busy_sibling(
            actions in proptest::collection::vec(action_strategy(), 1..30),
            oracle_kind in 0u8..3,
            seed in any::<u64>(),
            calls in 1u64..40,
        ) {
            let setup = Setup {
                noise: Some((HEAVY_NOISE, seed)),
                victim: Some(Victim::Busy { calls }),
                ..Setup::default()
            };
            let (reference, r) = run_actions(&actions, oracle_kind, false, setup);
            let (fused, f) = run_actions(&actions, oracle_kind, true, setup);
            prop_assert_eq!(&fused, &reference, "loop tier diverged from stepping");
            prop_assert_eq!(r.loop_retired, 0, "the per-step oracle retires no loop turns");
            prop_assert_eq!(f.fast + f.fallback, f.attempts);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batch carry's axis: batched calls and `Execute` probe
        /// rounds over ways clear of the busy victim's loop (which carry
        /// it) and over an eviction set on the loop's own L1i set (which
        /// must not), between waits, single probes and mid-run loads, under
        /// heavy, realistic or no eviction noise. The carried batches must
        /// land exactly where stepping at every catch-up point lands —
        /// fetch windows included.
        #[test]
        fn prop_batches_match_with_busy_sibling(
            actions in proptest::collection::vec(batch_action_strategy(), 1..30),
            oracle_kind in 0u8..3,
            seed in any::<u64>(),
            noise in 0u8..3,
            calls in 1u64..40,
        ) {
            let noise = [HEAVY_NOISE, NoiseConfig::realistic(), NoiseConfig::quiet()][noise as usize];
            let setup = Setup {
                noise: Some((noise, seed)),
                victim: Some(Victim::Busy { calls }),
                ..Setup::default()
            };
            let (reference, r) = run_actions(&actions, oracle_kind, false, setup);
            let (fused, f) = run_actions(&actions, oracle_kind, true, setup);
            prop_assert_eq!(&fused, &reference, "batch carry diverged from stepping");
            prop_assert_eq!(r.carried, 0, "the per-step oracle carries nothing");
            prop_assert_eq!(f.fast + f.fallback, f.attempts);
        }
    }

    /// Probe rounds and primes over the clear ways carry the busy victim
    /// (quiet and realistic noise), and still match stepping.
    #[test]
    fn busy_sibling_is_carried_across_batches() {
        let batch = |probe| Action::Batch { probe, clear: true, n: 4 };
        let actions: Vec<Action> = (0..60u16)
            .flat_map(|i| [batch(false), Action::Wait(300 + i * 37), batch(true)])
            .collect();
        for noise in [None, Some((NoiseConfig::realistic(), 3))] {
            let setup =
                Setup { noise, victim: Some(Victim::Busy { calls: 1_000 }), ..Setup::default() };
            let (reference, _) = run_actions(&actions, 0, false, setup);
            let (fused, f) = run_actions(&actions, 0, true, setup);
            assert_eq!(fused, reference, "{noise:?}");
            assert!(f.carried >= 40, "{noise:?}: {} batches carried", f.carried);
        }
    }

    /// A batch with one callee that is not `nop*; ret` is refused as a
    /// whole: each of its `Execute` probes or calls is injected per-step
    /// and counted as one fallback, and the batch leaves the state it
    /// leaves with fusion off — alone and beside the busy victim.
    #[test]
    fn refused_batches_step_every_probe_and_call() {
        for victim in [None, Some(Victim::Busy { calls: 100 })] {
            for probe in [true, false] {
                let actions = [Action::Batch { probe, clear: true, n: 4 }];
                let setup =
                    Setup { noise: Some((NoiseConfig::realistic(), 9)), victim, break_way: true };
                let (reference, _) = run_actions(&actions, 0, false, setup);
                let (fused, f) = run_actions(&actions, 0, true, setup);
                assert_eq!(fused, reference, "probe batch {probe}, {victim:?}");
                assert_eq!((f.fast, f.fallback), (0, 4), "probe batch {probe}, {victim:?}");
            }
        }
    }

    /// The busy victim's turns do retire in closed form: over quiet and
    /// realistic noise, waits and probes, most of its instructions skip
    /// stepping, and the outcome still matches per-step execution.
    #[test]
    fn busy_sibling_retires_in_closed_form() {
        let actions: Vec<Action> = (0..60u16)
            .flat_map(|i| [Action::Wait(300 + i * 37), Action::Probe { op: 0, place: None }])
            .collect();
        for noise in [None, Some((NoiseConfig::realistic(), 3))] {
            let setup =
                Setup { noise, victim: Some(Victim::Busy { calls: 1_000 }), ..Setup::default() };
            let (reference, _) = run_actions(&actions, 0, false, setup);
            let (fused, f) = run_actions(&actions, 0, true, setup);
            assert_eq!(fused, reference, "{noise:?}");
            let victim_instrs =
                fused.hw_counters.iter().rev().find(|(n, _)| *n == "INST_RETIRED.ANY");
            let total = victim_instrs.expect("T1 retired instructions").1;
            assert!(f.loop_retired * 2 > total, "{} of {total} in closed form", f.loop_retired);
        }
    }

    /// A victim that faults partway through an attack: whichever catch-up
    /// point reaches the fault — before a probe instruction, before a step
    /// of a called line, inside a wait, after a sequence — the fused tier
    /// must return the per-step path's error with its partial state,
    /// including an attacker thread left mid-call.
    #[test]
    fn sibling_fault_mid_probe_matches_per_step() {
        let actions: Vec<Action> = (0..9u8)
            .flat_map(|op| {
                [
                    Action::ExecuteBatch(3),
                    Action::Probe { op, place: None },
                    Action::Wait(150),
                    Action::Probe { op: EXECUTE_OP, place: Some(2) },
                    Action::Execute,
                ]
            })
            .collect();
        let mut left_mid_call = 0;
        for (iters, noise) in (1..48).flat_map(|i| [(i, None), (i, Some((HEAVY_NOISE, i)))]) {
            let setup = Setup {
                noise,
                victim: Some(Victim::Modexp { iters, fault: true }),
                ..Setup::default()
            };
            let (reference, _) = run_actions(&actions, 0, false, setup);
            let (fused, f) = run_actions(&actions, 0, true, setup);
            assert_eq!(fused, reference, "victim faulting after {iters} iterations, {noise:?}");
            assert_eq!(f.fallback, 0, "the faulting victim forced a fallback");
            let err = fused.err.as_deref().expect("the victim faults");
            assert!(err.contains("no instruction at 0xdead0000"), "{err}");
            if fused.states.0 == ThreadState::Running {
                left_mid_call += 1;
            }
        }
        assert!(left_mid_call > 0, "some fault must land inside a call");
    }

    /// A runnable sibling no longer forces the per-step path: the
    /// sibling's program interleaves by clock order *inside* each fused
    /// probe, and every probe class — `Execute` included — matches
    /// fusion-off exactly in registers, clocks, hardware counters and
    /// residency.
    #[test]
    fn running_sibling_interleaves_inside_fused_probe() {
        let actions: Vec<Action> =
            (0..9u8).flat_map(|op| [Action::Execute, Action::Probe { op, place: None }]).collect();
        let victim = Some(Victim::Modexp { iters: 1_000_000, fault: false });
        let setup = Setup { noise: None, victim, ..Setup::default() };
        let (reference, _) = run_actions(&actions, 0, false, setup);
        let (fused, f) = run_actions(&actions, 0, true, setup);
        assert_eq!(fused, reference);
        assert_eq!((f.fast, f.fallback), (f.attempts, 0), "every probe and call fused");
        assert_eq!(fused.states, (ThreadState::Idle, ThreadState::Running));
        assert!(fused.clock_t1 >= fused.clock_t0, "sibling caught up with the attacker");
        // The store probe on the L1i-resident line machine-clears T1.
        let clears = fused.hw_counters.iter().find(|(n, _)| *n == "MACHINE_CLEARS.SMC");
        assert!(clears.is_some_and(|(_, c)| *c > 0), "{clears:?}");
    }

    /// The compiler recognizes exactly the probe template shape: all nine
    /// timed operations compile (the `Execute` probe's `call *r` too),
    /// malformed shapes do not.
    #[test]
    fn compile_accepts_probe_templates_only() {
        for op in 0..9u8 {
            let probe = CompiledProbe::compile(&template(op)).expect("probe op compiles");
            assert_eq!(probe.instrs(), &template(op), "fallback sequence preserved");
        }
        let mut no_fence = template(0);
        no_fence[0] = Instr::Nop;
        assert!(CompiledProbe::compile(&no_fence).is_none());
        let mut no_rdtsc = template(0);
        no_rdtsc[4] = Instr::Nop;
        assert!(CompiledProbe::compile(&no_rdtsc).is_none());
        let mut direct_call = template(0);
        direct_call[2] = Instr::Call { target: TARGET };
        assert!(CompiledProbe::compile(&direct_call).is_none());
    }

    /// Observability guards force the per-step path: with the fetch log
    /// enabled the fused tier must refuse (the log must see every fetch),
    /// and the refusal is counted.
    #[test]
    fn fetch_log_forces_fallback() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        m.load_program(&oracle(0));
        m.warm_tlb(T0, Addr(TARGET));
        m.place_line(Addr(TARGET), Placement::L1i);
        m.set_reg(T0, Reg::R13, TARGET);
        // A store probe against the L1i-resident line: the per-step path
        // still fires and counts its machine clear.
        let probe = CompiledProbe::compile(&template(1)).unwrap();
        m.set_fetch_log(true);
        run_probe(&mut m, &probe).unwrap();
        assert_eq!(m.counters(T0).read(PerfEvent::SimProbeFastPath), 0);
        assert_eq!(m.counters(T0).read(PerfEvent::SimProbeFallback), 1);
        assert_eq!(m.counters(T0).read(PerfEvent::SimSmcClears), 1, "per-step path cleared");
    }
}

/// Dual-thread equivalence: a victim loop on T1 driven causally while T0
/// runs its own program — the scheduling the covert channels rely on.
/// The victim halts mid-run, so the drive passes from the co-running
/// loop into the lone-thread loop. Besides decoded vs reference, each
/// tier runs T0 two ways: one `run_until_halt`, and the per-instruction
/// oracle that hands the scheduler one step at a time and so re-checks
/// the sibling's state before every step.
#[test]
fn dual_thread_decoded_matches_reference() {
    let mut a = Assembler::new(0x20_0000);
    a.mov_imm(Reg::R0, 0)
        .mov_imm(Reg::R8, DATA_BASE + 0x1000)
        .label("loop")
        .add_imm(Reg::R0, 1)
        .store(Reg::R0, MemRef::base(Reg::R8))
        .cmp_imm(Reg::R0, 150)
        .jne("loop")
        .halt();
    let victim = a.assemble().unwrap();

    let mut b = Assembler::new(CODE_BASE);
    b.mov_imm(Reg::R1, 0)
        .mov_imm(Reg::R9, DATA_BASE)
        .label("loop")
        .add_imm(Reg::R1, 3)
        .load(Reg::R2, MemRef::base(Reg::R9))
        .mul(Reg::R2, Reg::R1)
        .cmp_imm(Reg::R1, 900)
        .jne("loop")
        .halt();
    let driver = b.assemble().unwrap();

    let mut outcomes = Vec::new();
    for tier in [REFERENCE, DECODED] {
        for one_step_at_a_time in [false, true] {
            let mut m = machine(tier, None);
            m.load_program(&victim);
            m.load_program(&driver);
            m.start_program(T1, victim.entry(), &[]);
            m.start_program(T0, driver.entry(), &[]);
            if one_step_at_a_time {
                while m.state(T0) == ThreadState::Running {
                    m.run_burst(T0, 1).unwrap();
                }
            } else {
                m.run_until_halt(T0, 1_000_000).unwrap();
            }
            assert_eq!(m.state(T1), ThreadState::Halted, "the victim halts mid-run");
            outcomes.push((
                (tier, one_step_at_a_time),
                m.reg(T0, Reg::R1),
                m.reg(T0, Reg::R2),
                m.reg(T1, Reg::R0),
                m.clock(T0),
                m.clock(T1),
                m.counters(T0).snapshot(),
                m.counters(T1).snapshot(),
            ));
        }
    }
    let reference = &outcomes[0];
    for o in &outcomes[1..] {
        assert_eq!(
            (&o.1, &o.2, &o.3, &o.4, &o.5, &o.6, &o.7),
            (
                &reference.1,
                &reference.2,
                &reference.3,
                &reference.4,
                &reference.5,
                &reference.6,
                &reference.7
            ),
            "(tier, one step at a time) = {:?} diverged from the reference",
            o.0
        );
    }
}
