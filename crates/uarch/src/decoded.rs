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

use std::collections::HashMap;

use crate::addr::Addr;
use crate::asm::Program;
use crate::isa::Instr;

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
}

/// The compiled side table. See the [module documentation](self).
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    instrs: Vec<DecodedInstr>,
    by_pc: HashMap<u64, u32>,
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
        DecodedProgram { instrs, by_pc }
    }

    /// Re-decode one instruction in place after a self-modifying
    /// write-back. Succeeds when `pc` is already decoded and the new
    /// instruction keeps the old encoded length (the common SMC pattern:
    /// a line's bytes are rewritten but instruction boundaries survive) —
    /// the entry's operation and static branch target are refreshed while
    /// every index in the table, including successor links held by other
    /// entries and any `pc → index` values cached by the engine's
    /// threads, stays valid. Returns `false` when the patch would move
    /// instruction boundaries (an unmapped `pc`, or a different length);
    /// the caller must then recompile the whole table.
    pub fn patch(&mut self, pc: u64, instr: Instr) -> bool {
        let Some(&idx) = self.by_pc.get(&pc) else {
            return false;
        };
        let target = match instr {
            Instr::Jmp { target } | Instr::Jcc { target, .. } | Instr::Call { target } => {
                self.by_pc.get(&target).copied().unwrap_or(NO_IDX)
            }
            _ => NO_IDX,
        };
        let d = &mut self.instrs[idx as usize];
        if d.len != instr.len() {
            return false;
        }
        d.instr = instr;
        d.target = target;
        true
    }

    /// Drop the compiled table (machine reset).
    pub fn clear(&mut self) {
        self.instrs.clear();
        self.by_pc.clear();
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

    #[test]
    fn patch_rewrites_in_place_when_lengths_match() {
        let p = looped();
        let mut d = DecodedProgram::compile(&p);
        let jne_idx = (0..d.len() as u32)
            .find(|i| matches!(d.get(*i).instr, Instr::Jcc { .. }))
            .expect("program has a jcc");
        let pc = d.get(jne_idx).pc;
        let old_fall = d.get(jne_idx).fall;
        // Retarget the branch at its own pc: same length, new static target.
        let new_target = d.get(0).pc;
        let patched = Instr::Jcc { cond: crate::isa::Cond::Eq, target: new_target };
        assert!(d.patch(pc, patched));
        let e = d.get(jne_idx);
        assert_eq!(e.instr, patched);
        assert_eq!(d.get(e.target).pc, new_target, "target re-resolved");
        assert_eq!(e.fall, old_fall, "fall-through index survives");
    }

    #[test]
    fn patch_refuses_boundary_changes() {
        let p = looped();
        let mut d = DecodedProgram::compile(&p);
        // Unmapped pc: nothing to patch in place.
        assert!(!d.patch(0xdead_0000, Instr::Nop));
        // Length change (add_imm is 5 bytes, nop is 1): boundaries move.
        let add_pc = (0..d.len() as u32)
            .map(|i| *d.get(i))
            .find(|e| matches!(e.instr, Instr::AddImm { .. }))
            .expect("program has an add_imm")
            .pc;
        assert!(!d.patch(add_pc, Instr::Nop));
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
