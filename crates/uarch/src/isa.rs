//! The simulated instruction set.
//!
//! A compact x86-like ISA: 16 general-purpose 64-bit registers, a two-flag
//! condition state written by `cmp`, direct and indirect calls with an
//! engine-managed shadow stack, and the nine "probe" instruction classes
//! from SMaCk Listing 2 (`mov` load, `clflush`, `clflushopt`, `movb` store,
//! `lock incb`, `prefetcht0`, `prefetchnta`, `call`, `clwb`).
//!
//! Every instruction has a byte length so that code occupies cache lines the
//! way real x86 code does; the front-end fetches at line granularity.

use std::fmt;

/// A general-purpose register, `R0` through `R15`.
///
/// ```
/// use smack_uarch::isa::Reg;
/// assert_eq!(Reg::R3.index(), 3);
/// assert_eq!(Reg::from_index(3), Reg::R3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(u8);

impl Reg {
    pub const R0: Reg = Reg(0);
    pub const R1: Reg = Reg(1);
    pub const R2: Reg = Reg(2);
    pub const R3: Reg = Reg(3);
    pub const R4: Reg = Reg(4);
    pub const R5: Reg = Reg(5);
    pub const R6: Reg = Reg(6);
    pub const R7: Reg = Reg(7);
    pub const R8: Reg = Reg(8);
    pub const R9: Reg = Reg(9);
    pub const R10: Reg = Reg(10);
    pub const R11: Reg = Reg(11);
    pub const R12: Reg = Reg(12);
    pub const R13: Reg = Reg(13);
    pub const R14: Reg = Reg(14);
    pub const R15: Reg = Reg(15);

    /// Number of architectural registers.
    pub const COUNT: usize = 16;

    /// Register for index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn from_index(i: usize) -> Reg {
        assert!(i < Self::COUNT, "register index {i} out of range");
        Reg(i as u8)
    }

    /// Index of this register in the register file (0..16). The mask is a
    /// no-op for valid registers (construction enforces `< 16`) but lets
    /// the optimizer drop the bounds check on every register-file access
    /// in the engine's hot loop.
    pub fn index(self) -> usize {
        (self.0 & 0xf) as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A `base + displacement` memory operand, as in `mov (%rdi), %rax` or
/// `clflush 8(%rsi)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Base register holding the address.
    pub base: Reg,
    /// Signed byte displacement added to the base.
    pub disp: i64,
}

impl MemRef {
    /// Memory operand `(%base)`.
    pub fn base(base: Reg) -> MemRef {
        MemRef { base, disp: 0 }
    }

    /// Memory operand `disp(%base)`.
    pub fn disp(base: Reg, disp: i64) -> MemRef {
        MemRef { base, disp }
    }
}

/// Operand size for loads and stores.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemSize {
    /// One byte (`movb`).
    Byte,
    /// Eight bytes (`movq`).
    Quad,
}

/// Branch condition, evaluated against the flags written by the most recent
/// `cmp`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal (`je`).
    Eq,
    /// Not equal (`jne`).
    Ne,
    /// Unsigned below (`jb`).
    Lt,
    /// Unsigned above or equal (`jae`).
    Ge,
    /// Unsigned below or equal (`jbe`).
    Le,
    /// Unsigned above (`ja`).
    Gt,
}

/// Comparison flags produced by `cmp a, b` (computed as `a ? b`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Flags {
    /// `a == b`.
    pub eq: bool,
    /// `a < b` (unsigned).
    pub lt: bool,
}

impl Flags {
    /// Compute flags for `cmp a, b`.
    pub fn compare(a: u64, b: u64) -> Flags {
        Flags { eq: a == b, lt: a < b }
    }

    /// Evaluate a branch condition against these flags.
    #[inline]
    pub fn eval(self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.eq,
            Cond::Ne => !self.eq,
            Cond::Lt => self.lt,
            Cond::Ge => !self.lt,
            Cond::Le => self.lt || self.eq,
            Cond::Gt => !self.lt && !self.eq,
        }
    }
}

/// One simulated instruction.
///
/// Control-flow targets are absolute virtual addresses; use
/// [`crate::asm::Assembler`] to write code with labels.
///
/// `Instr` is `Copy` (every operand is a small scalar), so moving a decoded
/// instruction into the execution loop costs a register-sized memcpy — the
/// hot step path never clones or allocates.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `nop`.
    Nop,
    /// Stop the thread. Models falling off the end of a workload.
    Halt,
    /// `mov $imm, %dst`.
    MovImm { dst: Reg, imm: u64 },
    /// `mov %src, %dst`.
    Mov { dst: Reg, src: Reg },
    /// Load from memory: `mov (mem), %dst`.
    Load { dst: Reg, mem: MemRef, size: MemSize },
    /// Store to memory: `mov %src, (mem)`.
    Store { src: Reg, mem: MemRef, size: MemSize },
    /// Store an immediate byte: `movb $imm, (mem)` — the SMC store primitive.
    StoreImm { mem: MemRef, imm: u8 },
    /// `add %src, %dst`.
    Add { dst: Reg, src: Reg },
    /// `add $imm, %dst` (also used as `sub` with negative `imm`).
    AddImm { dst: Reg, imm: i64 },
    /// `sub %src, %dst`.
    Sub { dst: Reg, src: Reg },
    /// `imul %src, %dst`.
    Mul { dst: Reg, src: Reg },
    /// `and %src, %dst`.
    And { dst: Reg, src: Reg },
    /// `or %src, %dst`.
    Or { dst: Reg, src: Reg },
    /// `xor %src, %dst`.
    Xor { dst: Reg, src: Reg },
    /// `shl $amount, %dst`.
    ShlImm { dst: Reg, amount: u8 },
    /// `shr $amount, %dst`.
    ShrImm { dst: Reg, amount: u8 },
    /// `cmp %b, %a` — writes flags.
    Cmp { a: Reg, b: Reg },
    /// `cmp $imm, %a` — writes flags.
    CmpImm { a: Reg, imm: u64 },
    /// `jmp target`.
    Jmp { target: u64 },
    /// Conditional jump to `target`.
    Jcc { cond: Cond, target: u64 },
    /// `call target` (direct).
    Call { target: u64 },
    /// `call *%target` (indirect through a register) — the ISpectre gadget.
    CallReg { target: Reg },
    /// `ret`.
    Ret,
    /// `rdtsc`, result into `dst` (combines the edx:eax shuffle).
    Rdtsc { dst: Reg },
    /// `mfence` — waits for all outstanding loads/stores.
    Mfence,
    /// `lfence`.
    Lfence,
    /// `clflush (mem)`.
    Clflush { mem: MemRef },
    /// `clflushopt (mem)`.
    Clflushopt { mem: MemRef },
    /// `clwb (mem)`.
    Clwb { mem: MemRef },
    /// `prefetcht0 (mem)`.
    PrefetchT0 { mem: MemRef },
    /// `prefetchnta (mem)`.
    PrefetchNta { mem: MemRef },
    /// `lock incb (mem)` — the atomic SMC primitive.
    LockInc { mem: MemRef },
    /// Pseudo-instruction: advance this thread's clock by `cycles` without
    /// touching architectural state. Used to model long computations
    /// (e.g. a bignum limb multiplication loop) without simulating every
    /// ALU micro-op: the attacks observe how long code runs from its cache
    /// lines, not the arithmetic inside it.
    Delay { cycles: u32 },
}

impl Instr {
    /// Encoded length in bytes. Lengths are x86-plausible so that code
    /// occupies cache lines realistically (63 × `nop` + `ret` is exactly one
    /// 64-byte line, as in SMaCk Listing 1).
    #[allow(clippy::len_without_is_empty)] // an instruction is never empty
    pub fn len(&self) -> u64 {
        match self {
            Instr::Nop | Instr::Halt | Instr::Ret => 1,
            Instr::Mov { .. }
            | Instr::Add { .. }
            | Instr::Sub { .. }
            | Instr::And { .. }
            | Instr::Or { .. }
            | Instr::Xor { .. }
            | Instr::Cmp { .. }
            | Instr::CallReg { .. }
            | Instr::Rdtsc { .. }
            | Instr::Mfence
            | Instr::Lfence => 3,
            Instr::Mul { .. }
            | Instr::ShlImm { .. }
            | Instr::ShrImm { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Clflush { .. }
            | Instr::Clflushopt { .. }
            | Instr::Clwb { .. }
            | Instr::PrefetchT0 { .. }
            | Instr::PrefetchNta { .. }
            | Instr::LockInc { .. }
            | Instr::Delay { .. } => 4,
            Instr::AddImm { .. }
            | Instr::CmpImm { .. }
            | Instr::Jmp { .. }
            | Instr::Call { .. } => 5,
            Instr::Jcc { .. } => 6,
            Instr::MovImm { .. } | Instr::StoreImm { .. } => 7,
        }
    }

    /// Whether this instruction is one of the nine probe classes of SMaCk
    /// Listing 2 (i.e. may interact with the SMC detection unit).
    pub fn probe_kind(&self) -> Option<crate::profile::ProbeKind> {
        use crate::profile::ProbeKind as P;
        match self {
            Instr::Load { .. } => Some(P::Load),
            Instr::Clflush { .. } => Some(P::Flush),
            Instr::Clflushopt { .. } => Some(P::FlushOpt),
            Instr::Store { .. } | Instr::StoreImm { .. } => Some(P::Store),
            Instr::LockInc { .. } => Some(P::Lock),
            Instr::PrefetchT0 { .. } => Some(P::Prefetch),
            Instr::PrefetchNta { .. } => Some(P::PrefetchNta),
            Instr::Clwb { .. } => Some(P::Clwb),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_line_fill_matches_listing_1() {
        // 63 nops + ret = 64 bytes = exactly one cache line.
        let total: u64 = (0..63).map(|_| Instr::Nop.len()).sum::<u64>() + Instr::Ret.len();
        assert_eq!(total, crate::LINE_SIZE);
    }

    #[test]
    fn flags_conditions() {
        let f = Flags::compare(3, 5);
        assert!(f.eval(Cond::Lt));
        assert!(f.eval(Cond::Le));
        assert!(f.eval(Cond::Ne));
        assert!(!f.eval(Cond::Eq));
        assert!(!f.eval(Cond::Ge));
        assert!(!f.eval(Cond::Gt));

        let f = Flags::compare(5, 5);
        assert!(f.eval(Cond::Eq));
        assert!(f.eval(Cond::Le));
        assert!(f.eval(Cond::Ge));
        assert!(!f.eval(Cond::Lt));
        assert!(!f.eval(Cond::Gt));

        let f = Flags::compare(9, 5);
        assert!(f.eval(Cond::Gt));
        assert!(f.eval(Cond::Ge));
        assert!(f.eval(Cond::Ne));
    }

    #[test]
    fn probe_kinds_cover_listing_2() {
        use crate::profile::ProbeKind;
        let m = MemRef::base(Reg::R1);
        assert_eq!(
            Instr::Load { dst: Reg::R0, mem: m, size: MemSize::Quad }.probe_kind(),
            Some(ProbeKind::Load)
        );
        assert_eq!(Instr::Clflush { mem: m }.probe_kind(), Some(ProbeKind::Flush));
        assert_eq!(Instr::Clflushopt { mem: m }.probe_kind(), Some(ProbeKind::FlushOpt));
        assert_eq!(Instr::StoreImm { mem: m, imm: 0x90 }.probe_kind(), Some(ProbeKind::Store));
        assert_eq!(Instr::LockInc { mem: m }.probe_kind(), Some(ProbeKind::Lock));
        assert_eq!(Instr::PrefetchT0 { mem: m }.probe_kind(), Some(ProbeKind::Prefetch));
        assert_eq!(Instr::PrefetchNta { mem: m }.probe_kind(), Some(ProbeKind::PrefetchNta));
        assert_eq!(Instr::Clwb { mem: m }.probe_kind(), Some(ProbeKind::Clwb));
        assert_eq!(Instr::Nop.probe_kind(), None);
    }

    #[test]
    fn from_index_round_trips() {
        for i in 0..Reg::COUNT {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }
}
