//! The analyzer's two load-bearing guarantees, checked against the
//! machine itself on arbitrary programs:
//!
//! 1. **Footprint soundness** — the static fetch footprint is a *may*
//!    over-approximation: every cache line the engine's fetch-line log
//!    records during a real run (quiet or under injected eviction noise)
//!    is in the analyzer's footprint. A `ConstantFootprint` verdict is a
//!    proof only if this holds.
//! 2. **Patch stability** — taint verdicts come from instruction def/use
//!    shape, not encodings: a same-length, same-def/use rewrite of a
//!    routine (the `add → xor` swap the SMC equivalence suite uses)
//!    changes neither the verdict, the leaky lines, nor the footprint.
//!
//! The program generator mirrors `decoded_equivalence.rs` in the uarch
//! crate: random ALU/load/store bodies with forward skips, bounded inner
//! loops, and static + register-indirect calls to a fixed helper routine.

use proptest::prelude::*;
use smack_analysis::{analyze, SecretSpec};
use smack_uarch::asm::{Assembler, Program};
use smack_uarch::isa::{MemRef, Reg};
use smack_uarch::{Machine, MicroArch, NoiseConfig, ThreadId, Tier};

const T0: ThreadId = ThreadId::T0;
const CODE_BASE: u64 = 0x10_0000;
const HELPER_BASE: u64 = 0x1f_0000;
const DATA_BASE: u64 = 0x40_0000;

/// One random body instruction; registers stay in `R0..=R7`, `R8` holds
/// the data base, `R9` the helper address, `R10`/`R11` the loop counters.
#[derive(Clone, Debug)]
enum BodyOp {
    Alu(u8, u8, u8),
    MovImm(u8, u64),
    Load(u8, u8),
    Store(u8, u8),
    CmpImm(u8, u64),
    /// Forward `jcc` over the next op — generated programs always halt.
    SkipNext(u8),
    CallHelper,
    CallHelperReg,
    Clflush(u8),
    Nop,
    /// A bounded backward-branch inner loop.
    InnerLoop(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (0u8..5, 0u8..8, 0u8..8).prop_map(|(k, d, s)| BodyOp::Alu(k, d, s)),
        // Immediates stay below the code region so the audit's SMC
        // harvest never mistakes a random constant for a patch target.
        (0u8..8, 0u64..0x1_0000).prop_map(|(d, imm)| BodyOp::MovImm(d, imm)),
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

/// The helper routine's first instruction — the patch site for the
/// stability property. `add` and `xor` encode to the same length and
/// have identical def/use sets.
#[derive(Copy, Clone, PartialEq, Debug)]
enum HelperBody {
    Add,
    Xor,
}

/// Assemble `ops` into a two-iteration outer loop around the random
/// body, with a `ret`-terminated helper routine for the call ops.
fn build_program(ops: &[BodyOp], helper: HelperBody) -> Program {
    let mut a = Assembler::new(CODE_BASE);
    a.mov_imm(Reg::R8, DATA_BASE).mov_label(Reg::R9, "helper").mov_imm(Reg::R10, 0).label("loop");
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
    a.org(HELPER_BASE).label("helper");
    match helper {
        HelperBody::Add => a.add(Reg::R0, Reg::R1),
        HelperBody::Xor => a.xor(Reg::R0, Reg::R1),
    };
    a.nop().ret();
    a.assemble().expect("generated program assembles")
}

/// Run `prog` to completion on the map-lookup reference interpreter with
/// the fetch-line log on, returning the sorted, deduplicated set of cache
/// lines the engine actually fetched.
fn observed_lines(prog: &Program, noise_seed: Option<u64>) -> Vec<u64> {
    let profile = MicroArch::CascadeLake.profile();
    let mut m = match noise_seed {
        Some(seed) => Machine::with_noise(profile, NoiseConfig::realistic(), seed),
        None => Machine::new(profile),
    };
    m.set_tier(Tier::Reference);
    m.load_program(prog);
    m.set_fetch_log(true);
    m.start_program(T0, prog.entry(), &[]);
    m.run_until_halt(T0, 1_000_000).expect("program halts");
    let mut lines = m.take_fetch_log();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Every observed line is in `footprint` (both sorted).
fn covered(footprint: &[u64], observed: &[u64]) -> bool {
    observed.iter().all(|l| footprint.binary_search(l).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Footprint soundness: for arbitrary programs — including dynamic
    /// `call *%r9` transfers the CFG only knows through immediate
    /// harvesting — every cache line the engine fetches is in the static
    /// footprint, with and without declared secrets, with and without
    /// injected eviction noise.
    #[test]
    fn prop_static_footprint_covers_observed_fetches(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        let prog = build_program(&ops, HelperBody::Add);
        let spec = SecretSpec { tainted_regs: vec![Reg::R0], ..SecretSpec::default() };
        let report = analyze(&prog, prog.entry(), &spec);
        prop_assert!(report.audit.is_empty(), "audit: {:?}", report.audit);

        let quiet = observed_lines(&prog, None);
        prop_assert!(
            covered(&report.footprint, &quiet),
            "quiet run fetched lines outside the static footprint:\n  observed {quiet:x?}\n  footprint {:x?}",
            report.footprint
        );
        let noisy = observed_lines(&prog, Some(seed));
        prop_assert!(
            covered(&report.footprint, &noisy),
            "noisy run fetched lines outside the static footprint:\n  observed {noisy:x?}\n  footprint {:x?}",
            report.footprint
        );
    }

    /// Patch stability: rewriting the helper's `add` to the same-length,
    /// same-def/use `xor` — the SMC patch the equivalence suite applies
    /// mid-run — leaves the verdict, leaky lines, tainted transfer sites,
    /// and footprint identical.
    #[test]
    fn prop_verdicts_stable_across_same_shape_patch(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        taint_reg in 0u8..8,
    ) {
        let prog = build_program(&ops, HelperBody::Add);
        let patched = build_program(&ops, HelperBody::Xor);
        let spec =
            SecretSpec { tainted_regs: vec![reg(taint_reg)], ..SecretSpec::default() };
        let before = analyze(&prog, prog.entry(), &spec);
        let after = analyze(&patched, patched.entry(), &spec);
        prop_assert_eq!(before.verdict, after.verdict);
        prop_assert_eq!(&before.leaky_lines, &after.leaky_lines);
        prop_assert_eq!(&before.tainted_branches, &after.tainted_branches);
        prop_assert_eq!(&before.tainted_transfers, &after.tainted_transfers);
        prop_assert_eq!(&before.footprint, &after.footprint);

        // Determinism: analyzing the same program twice is bit-identical.
        let again = analyze(&prog, prog.entry(), &spec);
        prop_assert_eq!(before.verdict, again.verdict);
        prop_assert_eq!(&before.leaky_lines, &again.leaky_lines);
        prop_assert_eq!(&before.footprint, &again.footprint);
    }
}
