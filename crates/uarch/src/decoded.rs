//! The decoded-program side table behind the engine's fast step path.
//!
//! A [`crate::asm::Program`] stores instructions in a `BTreeMap<u64, Instr>`
//! keyed by address — ideal for assembly and merging, terrible for the hot
//! loop: every simulated instruction would pay an ordered-map lookup. At
//! [`crate::machine::Machine::load_program`] time the map is compiled into a
//! [`DecodedProgram`]: a dense `Vec<DecodedInstr>` in address order whose
//! entries carry everything the steady-state step loop needs — the
//! instruction itself (`Instr` is `Copy`), its byte length, the id of the
//! cache line it occupies, and the *indices* of its fall-through and static
//! branch-target successors. Sequential execution and taken static branches
//! then chase indices with zero map lookups and zero per-step allocation;
//! only dynamic transfers (`ret`, `call *%reg`, speculation rollback) fall
//! back to one O(1) hash probe in the `pc → index` map.
//!
//! Compilation also marks every *counted delay loop* — the six-instruction
//! turn `head: delay c; add r,-1; cmp r,0; je exit; jmp tail` with
//! `tail: jmp head` on the next line, the shape of a busy victim routine —
//! so the engine can retire whole turns of it in closed form
//! ([`CountedLoop`]). Every load recompiles the whole table and loaded
//! code is never rewritten, so marks always match the code.

use std::collections::HashMap;

use crate::addr::Addr;
use crate::asm::Program;
use crate::isa::{Cond, Instr, Reg};

/// Sentinel index meaning "no decoded successor" (the address is not mapped,
/// or the successor must be resolved through [`DecodedProgram::index_of`]).
pub const NO_IDX: u32 = u32::MAX;

/// One pre-decoded instruction: the operation plus every derived datum the
/// step loop would otherwise recompute per retirement.
#[derive(Copy, Clone, Debug)]
pub struct DecodedInstr {
    /// The instruction.
    pub instr: Instr,
    /// Its address.
    pub pc: u64,
    /// Encoded byte length (`pc + len` is the fall-through address).
    pub len: u64,
    /// Line-aligned address of the cache line holding `pc`.
    pub line: u64,
    /// Index of the instruction at `pc + len`, or [`NO_IDX`].
    pub fall: u32,
    /// Index of the static control-flow target (`jmp`/`jcc`/`call`), or
    /// [`NO_IDX`] for non-branches and unmapped targets.
    pub target: u32,
    /// Index of the [`CountedLoop`] this instruction belongs to, or
    /// [`NO_IDX`]: the engine's whole per-step test for the loop tier.
    pub counted: u32,
    /// Position in that loop's turn (0 = head `delay` … 5 = tail `jmp`).
    pub loop_pos: u8,
}

/// Instructions in one turn of a [`CountedLoop`].
pub const LOOP_LEN: usize = 6;
/// Position of a [`CountedLoop`]'s `add r,-1`.
pub const LOOP_ADD: usize = 1;
/// Position of its `cmp r,0`.
pub const LOOP_CMP: usize = 2;
/// Position of its `je exit`.
pub const LOOP_JE: usize = 3;
/// Position of its tail `jmp head`, the one instruction on the next line.
pub const LOOP_TAIL: usize = LOOP_LEN - 1;

/// A counted delay loop found at decode time: the turn
///
/// ```text
/// head: delay c          ; position 0 ┐
///       add   r, -1      ; 1          │ one cache line
///       cmp   r, 0       ; 2          │
///       je    exit       ; 3          │
///       jmp   tail       ; 4          ┘
/// tail: jmp   head       ; 5  on the next line
/// ```
///
/// which costs `c + 5` cycles whenever both lines fetch without a state
/// change. Positions index [`CountedLoop::idx`] and [`CountedLoop::pc`].
#[derive(Copy, Clone, Debug)]
pub struct CountedLoop {
    /// Decoded index of each position.
    pub idx: [u32; LOOP_LEN],
    /// Address of each position.
    pub pc: [u64; LOOP_LEN],
    /// The counted register.
    pub reg: Reg,
    /// The head's `delay` operand, in cycles.
    pub delay: u64,
    /// The body's cache line; the tail is on the next one.
    pub line: u64,
}

impl CountedLoop {
    /// The line holding position `pos`.
    #[inline]
    pub fn line_of(&self, pos: usize) -> u64 {
        if pos == LOOP_TAIL {
            self.line + crate::LINE_SIZE
        } else {
            self.line
        }
    }
}

/// The compiled side table. See the [module documentation](self).
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    instrs: Vec<DecodedInstr>,
    by_pc: HashMap<u64, u32>,
    /// Counted loops, indexed by [`DecodedInstr::counted`].
    loops: Vec<CountedLoop>,
}

impl DecodedProgram {
    /// Compile a program's address-ordered instruction map into the dense
    /// table. Called from `Machine::load_program`; cost is linear in
    /// program size and paid once per load, never per step.
    pub fn compile(prog: &Program) -> DecodedProgram {
        let mut instrs: Vec<DecodedInstr> = Vec::with_capacity(prog.len());
        let mut by_pc: HashMap<u64, u32> = HashMap::with_capacity(prog.len());
        for (pc, instr) in prog.iter() {
            let idx = instrs.len() as u32;
            let len = instr.len();
            instrs.push(DecodedInstr {
                instr: *instr,
                pc,
                len,
                line: Addr(pc).line().0,
                fall: NO_IDX,
                target: NO_IDX,
                counted: NO_IDX,
                loop_pos: 0,
            });
            by_pc.insert(pc, idx);
        }
        for d in &mut instrs {
            d.fall = by_pc.get(&(d.pc + d.len)).copied().unwrap_or(NO_IDX);
            let static_target = match d.instr {
                Instr::Jmp { target } | Instr::Jcc { target, .. } | Instr::Call { target } => {
                    Some(target)
                }
                _ => None,
            };
            if let Some(t) = static_target {
                d.target = by_pc.get(&t).copied().unwrap_or(NO_IDX);
            }
        }
        let mut prog = DecodedProgram { instrs, by_pc, loops: Vec::new() };
        for head in 0..prog.instrs.len() as u32 {
            if let Some(found) = prog.counted_loop_at(head) {
                let slot = prog.loops.len() as u32;
                for (pos, i) in found.idx.into_iter().enumerate() {
                    let d = &mut prog.instrs[i as usize];
                    d.counted = slot;
                    d.loop_pos = pos as u8;
                }
                prog.loops.push(found);
            }
        }
        prog
    }

    /// The counted loop whose head is at index `head`, if the shape in
    /// the [`CountedLoop`] docs is there: the five body instructions
    /// consecutive on one line, `add`/`cmp` on the same register, the
    /// `je` on equality, `jmp tail` resolving to a `jmp head` on the next
    /// line.
    fn counted_loop_at(&self, head: u32) -> Option<CountedLoop> {
        let at = |i: u32| self.instrs.get(i as usize);
        let h = at(head)?;
        let Instr::Delay { cycles } = h.instr else {
            return None;
        };
        let mut idx = [NO_IDX; LOOP_LEN];
        for (k, slot) in idx.iter_mut().take(LOOP_TAIL).enumerate() {
            let i = head + k as u32;
            let d = at(i)?;
            // Every body instruction up to the `je` falls through to the next.
            if d.line != h.line || (k <= LOOP_JE && d.fall != i + 1) {
                return None;
            }
            *slot = i;
        }
        let [_, add, cmp, je, jmp] = [0, LOOP_ADD, LOOP_CMP, LOOP_JE, LOOP_TAIL - 1]
            .map(|pos| self.instrs[idx[pos] as usize]);
        let reg = match (add.instr, cmp.instr, je.instr, jmp.instr) {
            (
                Instr::AddImm { dst, imm: -1 },
                Instr::CmpImm { a, imm: 0 },
                Instr::Jcc { cond: Cond::Eq, .. },
                Instr::Jmp { .. },
            ) if a == dst => dst,
            _ => return None,
        };
        let tail = at(jmp.target)?;
        if tail.line != h.line + crate::LINE_SIZE
            || !matches!(tail.instr, Instr::Jmp { .. })
            || tail.target != head
        {
            return None;
        }
        idx[LOOP_TAIL] = jmp.target;
        Some(CountedLoop {
            idx,
            pc: idx.map(|i| self.instrs[i as usize].pc),
            reg,
            delay: u64::from(cycles),
            line: h.line,
        })
    }

    /// Drop the compiled table (machine reset).
    pub fn clear(&mut self) {
        self.instrs.clear();
        self.by_pc.clear();
        self.loops.clear();
    }

    /// Index of the instruction at `pc`, or [`NO_IDX`] if none is mapped
    /// there. One hash probe — the slow path taken only on dynamic control
    /// transfers; sequential flow and static branches use the pre-resolved
    /// successor indices instead.
    pub fn index_of(&self, pc: u64) -> u32 {
        self.by_pc.get(&pc).copied().unwrap_or(NO_IDX)
    }

    /// The decoded entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (in particular [`NO_IDX`]).
    pub fn get(&self, idx: u32) -> &DecodedInstr {
        &self.instrs[idx as usize]
    }

    /// The counted loop at `slot` (a [`DecodedInstr::counted`] value).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range (in particular [`NO_IDX`]).
    #[inline]
    pub fn counted_loop(&self, slot: u32) -> &CountedLoop {
        &self.loops[slot as usize]
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::Reg;

    fn looped() -> Program {
        let mut a = Assembler::new(0x1000);
        a.mov_imm(Reg::R0, 0)
            .label("loop")
            .add_imm(Reg::R0, 1)
            .cmp_imm(Reg::R0, 4)
            .jne("loop")
            .halt();
        a.assemble().unwrap()
    }

    #[test]
    fn fallthrough_indices_chain_in_address_order() {
        let p = looped();
        let d = DecodedProgram::compile(&p);
        assert_eq!(d.len(), p.len());
        for i in 0..d.len() - 1 {
            let e = d.get(i as u32);
            assert_eq!(e.fall, (i + 1) as u32, "instr {i} falls through to {}", i + 1);
            assert_eq!(d.get(e.fall).pc, e.pc + e.len);
        }
        // The final halt has no mapped successor.
        assert_eq!(d.get((d.len() - 1) as u32).fall, NO_IDX);
    }

    #[test]
    fn static_branch_targets_resolve_to_indices() {
        let p = looped();
        let d = DecodedProgram::compile(&p);
        let loop_pc = p.label("loop").unwrap();
        let jne_idx = (0..d.len() as u32)
            .find(|i| matches!(d.get(*i).instr, Instr::Jcc { .. }))
            .expect("program has a jcc");
        let target = d.get(jne_idx).target;
        assert_ne!(target, NO_IDX);
        assert_eq!(d.get(target).pc, loop_pc);
    }

    #[test]
    fn index_of_mirrors_the_program_map() {
        let p = looped();
        let d = DecodedProgram::compile(&p);
        for (pc, instr) in p.iter() {
            let idx = d.index_of(pc);
            assert_ne!(idx, NO_IDX);
            let e = d.get(idx);
            assert_eq!(e.instr, *instr);
            assert_eq!(e.line, Addr(pc).line().0);
            assert_eq!(e.len, instr.len());
        }
        assert_eq!(d.index_of(0xdead_0000), NO_IDX);
    }

    #[test]
    fn unmapped_branch_targets_stay_unresolved() {
        let mut a = Assembler::new(0);
        a.jmp(0x9999u64).halt();
        let d = DecodedProgram::compile(&a.assemble().unwrap());
        assert_eq!(d.get(0).target, NO_IDX, "target outside the program");
    }

    const ROUTINE: u64 = 0x7_0000;

    /// A busy routine in the shape `ModexpVictimBuilder::emit_routine`
    /// emits — a logging prologue, then the counted body at `body_at`, the
    /// tail at `tail_at` — with the `cmp` operands as given.
    fn routine(body_at: u64, cmp: (Reg, u64), tail_at: u64) -> Program {
        let mut a = Assembler::new(ROUTINE);
        a.push(Instr::StoreImm { mem: crate::isa::MemRef::base(Reg::R10), imm: 1 })
            .add_imm(Reg::R10, 1)
            .mov_imm(Reg::R11, 9)
            .org(ROUTINE + body_at)
            .label("body")
            .delay(64)
            .add_imm(Reg::R11, -1)
            .cmp_imm(cmp.0, cmp.1)
            .je("done")
            .jmp("tail");
        a.org(ROUTINE + tail_at).label("tail").jmp("body").label("done").ret();
        a.assemble().unwrap()
    }

    /// The prologue is 19 bytes; the body follows it on the first line.
    fn emitted_shape() -> Program {
        routine(19, (Reg::R11, 0), 64)
    }

    fn marked(d: &DecodedProgram) -> usize {
        (0..d.len() as u32).filter(|&i| d.get(i).counted != NO_IDX).count()
    }

    #[test]
    fn emitted_counted_loop_is_marked() {
        let p = emitted_shape();
        let d = DecodedProgram::compile(&p);
        let head = d.get(d.index_of(p.label("body").unwrap()));
        assert_ne!(head.counted, NO_IDX);
        let lp = d.counted_loop(head.counted);
        assert_eq!(lp.pc[0], p.label("body").unwrap());
        assert_eq!(lp.pc[LOOP_TAIL], p.label("tail").unwrap());
        assert_eq!((lp.reg, lp.delay, lp.line), (Reg::R11, 64, ROUTINE));
        assert_eq!(lp.line_of(LOOP_TAIL), ROUTINE + crate::LINE_SIZE);
        for pos in 0..LOOP_LEN {
            let e = d.get(lp.idx[pos]);
            assert_eq!((e.counted, usize::from(e.loop_pos), e.pc), (head.counted, pos, lp.pc[pos]));
        }
        assert_eq!(marked(&d), LOOP_LEN, "only the six loop positions");
    }

    #[test]
    fn near_miss_loops_stay_unmarked() {
        for (what, p) in [
            ("cmp r,1", routine(19, (Reg::R11, 1), 64)),
            ("mismatched registers", routine(19, (Reg::R12, 0), 64)),
            // 25 body bytes from offset 50 cross into the next line.
            ("body crossing a line", routine(50, (Reg::R11, 0), 80)),
            ("tail on the body's line", routine(19, (Reg::R11, 0), 48)),
            ("tail two lines on", routine(19, (Reg::R11, 0), 128)),
        ] {
            assert_eq!(marked(&DecodedProgram::compile(&p)), 0, "{what}");
        }
    }

    #[test]
    fn clear_empties_the_table() {
        let mut d = DecodedProgram::compile(&looped());
        assert!(!d.is_empty());
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.index_of(0x1000), NO_IDX);
    }
}
