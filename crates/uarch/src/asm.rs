//! A tiny two-pass assembler for the simulated ISA.
//!
//! Supports labels, `.org`, `.align` and `.rept nop`-style padding, enough to
//! write the paper's oracle pages (Listing 1), victim routines and benign
//! workloads as readable Rust builder chains.
//!
//! ```
//! use smack_uarch::asm::Assembler;
//! use smack_uarch::isa::Reg;
//!
//! let mut a = Assembler::new(0x40_0000);
//! a.label("entry")
//!     .mov_imm(Reg::R0, 0)
//!     .label("loop")
//!     .add_imm(Reg::R0, 1)
//!     .cmp_imm(Reg::R0, 10)
//!     .jne("loop")
//!     .halt();
//! let prog = a.assemble().unwrap();
//! assert_eq!(prog.entry(), 0x40_0000);
//! assert!(prog.label("loop").is_some());
//! ```

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use crate::isa::{Cond, Instr, MemRef, MemSize, Reg};

/// A branch/call target: either an absolute address or a label to resolve.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Target {
    /// Absolute virtual address.
    Abs(u64),
    /// Named label, resolved by [`Assembler::assemble`].
    Label(String),
}

impl From<u64> for Target {
    fn from(a: u64) -> Target {
        Target::Abs(a)
    }
}

impl From<&str> for Target {
    fn from(s: &str) -> Target {
        Target::Label(s.to_owned())
    }
}

impl From<String> for Target {
    fn from(s: String) -> Target {
        Target::Label(s)
    }
}

/// Error produced when assembly fails.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// Two instructions were placed at overlapping addresses.
    Overlap { addr: u64 },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Overlap { addr } => write!(f, "instruction overlap at {addr:#x}"),
        }
    }
}

impl Error for AsmError {}

/// An assembled program: decoded instructions at absolute addresses plus the
/// label map.
#[derive(Clone, Debug, Default)]
pub struct Program {
    entry: u64,
    code: BTreeMap<u64, Instr>,
    labels: HashMap<String, u64>,
}

impl Program {
    /// Entry-point address (the assembler origin unless overridden with
    /// [`Assembler::entry`]).
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The instruction at `addr`, if one was assembled there.
    pub fn instr_at(&self, addr: u64) -> Option<&Instr> {
        self.code.get(&addr)
    }

    /// Address of a label.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Iterate over `(address, instruction)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Instr)> {
        self.code.iter().map(|(a, i)| (*a, i))
    }

    /// Number of assembled instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Drop all code and labels (keeping the label map's allocation),
    /// returning the program to the [`Program::default`] state — used when
    /// a machine is reset for reuse.
    pub fn clear(&mut self) {
        self.entry = 0;
        self.code.clear();
        self.labels.clear();
    }

    /// Merge another program's code and labels into this one. Re-merging
    /// identical code (e.g. reinstalling an oracle page) is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the two programs define *different* instructions at the
    /// same address.
    pub fn merge(&mut self, other: &Program) {
        for (a, i) in other.iter() {
            if let Some(prev) = self.code.insert(a, *i) {
                assert_eq!(&prev, i, "program merge conflict at {a:#x}");
            }
        }
        for (name, addr) in &other.labels {
            self.labels.insert(name.clone(), *addr);
        }
    }
}

enum Pending {
    Ready(Instr),
    Jmp(Target),
    Jcc(Cond, Target),
    Call(Target),
    MovLabel(Reg, Target),
}

/// The assembler. See the [module documentation](self) for an example.
pub struct Assembler {
    origin: u64,
    entry: Option<u64>,
    cursor: u64,
    items: Vec<(u64, Pending)>,
    labels: HashMap<String, u64>,
    duplicate: Option<String>,
}

impl Assembler {
    /// Start assembling at `origin`.
    pub fn new(origin: u64) -> Assembler {
        Assembler {
            origin,
            entry: None,
            cursor: origin,
            items: Vec::new(),
            labels: HashMap::new(),
            duplicate: None,
        }
    }

    /// Current emission address.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Override the program entry point (defaults to the origin).
    ///
    /// # Panics
    ///
    /// Panics if given a label that has not been defined yet.
    pub fn entry(&mut self, target: impl Into<Target>) -> &mut Self {
        let addr = match target.into() {
            Target::Abs(a) => a,
            Target::Label(l) => self
                .labels
                .get(&l)
                .copied()
                .unwrap_or_else(|| panic!("entry label `{l}` must be defined before entry()")),
        };
        self.entry = Some(addr);
        self
    }

    /// Move the cursor to an absolute address (`.org`).
    pub fn org(&mut self, addr: u64) -> &mut Self {
        self.cursor = addr;
        self
    }

    /// Align the cursor up to a multiple of `align` (`.align`).
    pub fn align(&mut self, align: u64) -> &mut Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.cursor = (self.cursor + align - 1) & !(align - 1);
        self
    }

    /// Define a label at the cursor.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self.labels.insert(name.to_owned(), self.cursor).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.to_owned());
        }
        self
    }

    /// Emit a raw instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        let len = instr.len();
        self.items.push((self.cursor, Pending::Ready(instr)));
        self.cursor += len;
        self
    }

    // ---- sugar -----------------------------------------------------------

    /// Emit `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Emit `n` nops (`.rept n; nop; .endr`).
    pub fn nops(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            self.push(Instr::Nop);
        }
        self
    }

    /// Emit `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Instr::Ret)
    }

    /// Emit `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// Emit `mov $imm, %dst`.
    pub fn mov_imm(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.push(Instr::MovImm { dst, imm })
    }

    /// Emit `mov %src, %dst`.
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mov { dst, src })
    }

    /// Emit a `mov` of a label's address into `dst`.
    pub fn mov_label(&mut self, dst: Reg, label: impl Into<Target>) -> &mut Self {
        let t = label.into();
        let len = Instr::MovImm { dst, imm: 0 }.len();
        self.items.push((self.cursor, Pending::MovLabel(dst, t)));
        self.cursor += len;
        self
    }

    /// Emit a quadword load `mov (mem), %dst`.
    pub fn load(&mut self, dst: Reg, mem: MemRef) -> &mut Self {
        self.push(Instr::Load { dst, mem, size: MemSize::Quad })
    }

    /// Emit a byte load `movzbl (mem), %dst`.
    pub fn load_byte(&mut self, dst: Reg, mem: MemRef) -> &mut Self {
        self.push(Instr::Load { dst, mem, size: MemSize::Byte })
    }

    /// Emit a quadword store `mov %src, (mem)`.
    pub fn store(&mut self, src: Reg, mem: MemRef) -> &mut Self {
        self.push(Instr::Store { src, mem, size: MemSize::Quad })
    }

    /// Emit `movb $imm, (mem)`.
    pub fn store_imm(&mut self, mem: MemRef, imm: u8) -> &mut Self {
        self.push(Instr::StoreImm { mem, imm })
    }

    /// Emit `add %src, %dst`.
    pub fn add(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Add { dst, src })
    }

    /// Emit `add $imm, %dst`.
    pub fn add_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Instr::AddImm { dst, imm })
    }

    /// Emit `sub %src, %dst`.
    pub fn sub(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Sub { dst, src })
    }

    /// Emit `imul %src, %dst`.
    pub fn mul(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mul { dst, src })
    }

    /// Emit `and %src, %dst`.
    pub fn and(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::And { dst, src })
    }

    /// Emit `or %src, %dst`.
    pub fn or(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Or { dst, src })
    }

    /// Emit `xor %src, %dst`.
    pub fn xor(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Xor { dst, src })
    }

    /// Emit `shl $amount, %dst`.
    pub fn shl_imm(&mut self, dst: Reg, amount: u8) -> &mut Self {
        self.push(Instr::ShlImm { dst, amount })
    }

    /// Emit `shr $amount, %dst`.
    pub fn shr_imm(&mut self, dst: Reg, amount: u8) -> &mut Self {
        self.push(Instr::ShrImm { dst, amount })
    }

    /// Emit `cmp %b, %a`.
    pub fn cmp(&mut self, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Cmp { a, b })
    }

    /// Emit `cmp $imm, %a`.
    pub fn cmp_imm(&mut self, a: Reg, imm: u64) -> &mut Self {
        self.push(Instr::CmpImm { a, imm })
    }

    /// Emit `jmp target`.
    pub fn jmp(&mut self, target: impl Into<Target>) -> &mut Self {
        let t = target.into();
        let len = Instr::Jmp { target: 0 }.len();
        self.items.push((self.cursor, Pending::Jmp(t)));
        self.cursor += len;
        self
    }

    /// Emit a conditional jump.
    pub fn jcc(&mut self, cond: Cond, target: impl Into<Target>) -> &mut Self {
        let t = target.into();
        let len = Instr::Jcc { cond: Cond::Eq, target: 0 }.len();
        self.items.push((self.cursor, Pending::Jcc(cond, t)));
        self.cursor += len;
        self
    }

    /// Emit `je target`.
    pub fn je(&mut self, target: impl Into<Target>) -> &mut Self {
        self.jcc(Cond::Eq, target)
    }

    /// Emit `jne target`.
    pub fn jne(&mut self, target: impl Into<Target>) -> &mut Self {
        self.jcc(Cond::Ne, target)
    }

    /// Emit `jb target` (unsigned less-than).
    pub fn jlt(&mut self, target: impl Into<Target>) -> &mut Self {
        self.jcc(Cond::Lt, target)
    }

    /// Emit `jae target` (unsigned greater-or-equal).
    pub fn jge(&mut self, target: impl Into<Target>) -> &mut Self {
        self.jcc(Cond::Ge, target)
    }

    /// Emit `call target`.
    pub fn call(&mut self, target: impl Into<Target>) -> &mut Self {
        let t = target.into();
        let len = Instr::Call { target: 0 }.len();
        self.items.push((self.cursor, Pending::Call(t)));
        self.cursor += len;
        self
    }

    /// Emit `call *%reg`.
    pub fn call_reg(&mut self, target: Reg) -> &mut Self {
        self.push(Instr::CallReg { target })
    }

    /// Emit `rdtsc` into `dst`.
    pub fn rdtsc(&mut self, dst: Reg) -> &mut Self {
        self.push(Instr::Rdtsc { dst })
    }

    /// Emit `mfence`.
    pub fn mfence(&mut self) -> &mut Self {
        self.push(Instr::Mfence)
    }

    /// Emit `clflush (mem)`.
    pub fn clflush(&mut self, mem: MemRef) -> &mut Self {
        self.push(Instr::Clflush { mem })
    }

    /// Emit a `Delay` pseudo-instruction.
    pub fn delay(&mut self, cycles: u32) -> &mut Self {
        self.push(Instr::Delay { cycles })
    }

    /// Resolve labels and produce the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an error for undefined or duplicate labels, or overlapping
    /// instructions.
    pub fn assemble(&mut self) -> Result<Program, AsmError> {
        if let Some(dup) = self.duplicate.take() {
            return Err(AsmError::DuplicateLabel(dup));
        }
        let resolve = |t: &Target, labels: &HashMap<String, u64>| -> Result<u64, AsmError> {
            match t {
                Target::Abs(a) => Ok(*a),
                Target::Label(l) => {
                    labels.get(l).copied().ok_or_else(|| AsmError::UndefinedLabel(l.clone()))
                }
            }
        };
        let mut code = BTreeMap::new();
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(self.items.len());
        for (addr, p) in &self.items {
            let instr = match p {
                Pending::Ready(i) => *i,
                Pending::Jmp(t) => Instr::Jmp { target: resolve(t, &self.labels)? },
                Pending::Jcc(c, t) => Instr::Jcc { cond: *c, target: resolve(t, &self.labels)? },
                Pending::Call(t) => Instr::Call { target: resolve(t, &self.labels)? },
                Pending::MovLabel(r, t) => {
                    Instr::MovImm { dst: *r, imm: resolve(t, &self.labels)? }
                }
            };
            spans.push((*addr, *addr + instr.len()));
            if code.insert(*addr, instr).is_some() {
                return Err(AsmError::Overlap { addr: *addr });
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(AsmError::Overlap { addr: w[1].0 });
            }
        }
        Ok(Program { entry: self.entry.unwrap_or(self.origin), code, labels: self.labels.clone() })
    }
}

impl fmt::Debug for Assembler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Assembler")
            .field("origin", &self.origin)
            .field("cursor", &self.cursor)
            .field("items", &self.items.len())
            .field("labels", &self.labels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new(0x1000);
        a.label("start").nop().jmp("end").nop().label("end").halt();
        let p = a.assemble().unwrap();
        let end = p.label("end").unwrap();
        match p.instr_at(0x1001).unwrap() {
            Instr::Jmp { target } => assert_eq!(*target, end),
            other => panic!("expected jmp, got {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new(0);
        a.jmp("missing");
        assert_eq!(a.assemble().unwrap_err(), AsmError::UndefinedLabel("missing".into()));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Assembler::new(0);
        a.label("x").nop().label("x");
        assert_eq!(a.assemble().unwrap_err(), AsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn align_and_org_place_code() {
        let mut a = Assembler::new(0x10);
        a.nop().align(0x40).label("aligned").nop().org(0x1000).label("far").ret();
        let p = a.assemble().unwrap();
        assert_eq!(p.label("aligned"), Some(0x40));
        assert_eq!(p.label("far"), Some(0x1000));
    }

    #[test]
    fn overlap_detected() {
        let mut a = Assembler::new(0);
        a.mov_imm(Reg::R0, 1); // 7 bytes at 0
        a.org(3).nop(); // lands inside the mov
        assert!(matches!(a.assemble().unwrap_err(), AsmError::Overlap { .. }));
    }

    #[test]
    fn addresses_advance_by_length() {
        let mut a = Assembler::new(0);
        a.nop().ret().mov_imm(Reg::R0, 1).nop();
        let p = a.assemble().unwrap();
        assert!(p.instr_at(0).is_some());
        assert!(p.instr_at(1).is_some());
        assert!(p.instr_at(2).is_some());
        assert!(p.instr_at(9).is_some()); // 2 + 7
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn merge_combines_programs() {
        let mut a = Assembler::new(0);
        a.label("a").nop();
        let pa = a.assemble().unwrap();
        let mut b = Assembler::new(0x100);
        b.label("b").ret();
        let mut pb = b.assemble().unwrap();
        pb.merge(&pa);
        assert!(pb.label("a").is_some());
        assert!(pb.label("b").is_some());
        assert_eq!(pb.len(), 2);
    }
}
