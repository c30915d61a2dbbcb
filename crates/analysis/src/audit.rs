//! Static audit of the self-modifying-code (SMC) patch contract.
//!
//! The engine re-decodes a self-modified instruction in place only when
//! the write-back keeps instruction boundaries
//! (`DecodedProgram::patch`); anything else costs a full recompile, and a
//! store that lands mid-instruction would desynchronize decode. This lint
//! checks both sides of that contract from the instruction stream alone:
//!
//! - **SMC patch targets sit on instruction boundaries.** Candidate patch
//!   targets are harvested from immediate operands that point into the
//!   program's code lines (the `mov_imm reg, target; store (reg)`
//!   self-modifying idiom): a store landing mid-instruction would
//!   desynchronize decode.
//! - **Planned patches are length-preserving and mapped**
//!   ([`audit_patches`]): the in-place `DecodedProgram::patch` contract.

use smack_uarch::asm::Program;
use smack_uarch::isa::Instr;
use smack_uarch::DecodedProgram;

/// One contract violation found by the lint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditViolation {
    /// A harvested SMC patch target points into the middle of an encoded
    /// instruction.
    PatchTargetMidInstruction {
        /// The target address.
        target: u64,
    },
    /// A planned patch changes the encoded instruction length.
    PatchChangesLength {
        /// The patch site.
        pc: u64,
        /// Old encoded length.
        old_len: u64,
        /// New encoded length.
        new_len: u64,
    },
    /// A planned patch aims at an address with no decoded instruction.
    PatchTargetUnmapped {
        /// The patch site.
        pc: u64,
    },
}

/// Run the lint over `prog`. An empty result means every harvested SMC
/// patch target sits on an instruction boundary.
pub fn audit(prog: &Program) -> Vec<AuditViolation> {
    let d = DecodedProgram::compile(prog);
    let n = d.len() as u32;
    let mut v = Vec::new();

    // Harvest candidate SMC patch targets: immediates that point into the
    // program's code lines (the self-modifying store idiom materializes
    // its target address with mov_imm/add_imm).
    let code_lines: std::collections::HashSet<u64> = (0..n).map(|i| d.get(i).line).collect();
    let has_code_store = (0..n).any(|i| {
        matches!(
            d.get(i).instr,
            Instr::Store { .. } | Instr::StoreImm { .. } | Instr::LockInc { .. }
        )
    });
    if has_code_store {
        for i in 0..n {
            let imm = match d.get(i).instr {
                Instr::MovImm { imm, .. } => imm,
                Instr::AddImm { imm, .. } => imm as u64,
                _ => continue,
            };
            if !code_lines.contains(&(imm & !63)) {
                continue;
            }
            if d.index_of(imm) != smack_uarch::decoded::NO_IDX {
                continue;
            }
            // Inside a code line but not on an instruction boundary — only
            // a violation if it lands *within* an encoded instruction (gaps
            // between regions are fine).
            let mid = (0..n).any(|j| {
                let e = d.get(j);
                imm > e.pc && imm < e.pc + e.len
            });
            if mid {
                v.push(AuditViolation::PatchTargetMidInstruction { target: imm });
            }
        }
    }
    v
}

/// Lint a planned set of in-place patches against `prog`: each site must
/// be a decoded instruction and keep its encoded length (the
/// `DecodedProgram::patch` contract).
pub fn audit_patches(prog: &Program, patches: &[(u64, Instr)]) -> Vec<AuditViolation> {
    let d = DecodedProgram::compile(prog);
    let mut v = Vec::new();
    for (pc, instr) in patches {
        let idx = d.index_of(*pc);
        if idx == smack_uarch::decoded::NO_IDX {
            v.push(AuditViolation::PatchTargetUnmapped { pc: *pc });
            continue;
        }
        let old = d.get(idx);
        if old.len != instr.len() {
            v.push(AuditViolation::PatchChangesLength {
                pc: *pc,
                old_len: old.len,
                new_len: instr.len(),
            });
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use smack_uarch::asm::Assembler;
    use smack_uarch::isa::{MemRef, Reg};

    #[test]
    fn clean_programs_pass() {
        let mut a = Assembler::new(0x1000);
        a.mov_imm(Reg::R0, 0)
            .label("loop")
            .add_imm(Reg::R0, 1)
            .cmp_imm(Reg::R0, 4)
            .jne("loop")
            .clflush(MemRef::base(Reg::R1))
            .halt();
        assert!(audit(&a.assemble().unwrap()).is_empty());
    }

    #[test]
    fn smc_store_to_run_head_is_fine() {
        // The amg idiom: materialize a code address, store to it. The
        // target is an instruction boundary, so the lint stays quiet.
        let mut a = Assembler::new(0x2000);
        a.mov_imm(Reg::R2, 0x2000 + 0x400).store_imm(MemRef::base(Reg::R2), 0x90).halt();
        a.org(0x2000 + 0x400).nop().nop().ret();
        assert!(audit(&a.assemble().unwrap()).is_empty());
    }

    #[test]
    fn smc_store_mid_instruction_is_flagged() {
        // Target one byte into a 5-byte mov_imm: mid-instruction.
        let mut a = Assembler::new(0x3000);
        a.mov_imm(Reg::R2, 0x3000 + 0x401).store_imm(MemRef::base(Reg::R2), 0x90).halt();
        a.org(0x3000 + 0x400).mov_imm(Reg::R0, 7).ret();
        let v = audit(&a.assemble().unwrap());
        assert!(v.iter().any(|x| matches!(
            x,
            AuditViolation::PatchTargetMidInstruction { target } if *target == 0x3401
        )));
    }

    #[test]
    fn planned_patches_checked_for_length_and_mapping() {
        let mut a = Assembler::new(0x5000);
        a.add(Reg::R0, Reg::R1).halt();
        let p = a.assemble().unwrap();
        // add → lfence keeps the 3-byte length: clean.
        assert!(audit_patches(&p, &[(0x5000, Instr::Lfence)]).is_empty());
        // add → nop shrinks the encoding: flagged.
        let v = audit_patches(&p, &[(0x5000, Instr::Nop)]);
        assert!(matches!(v[0], AuditViolation::PatchChangesLength { .. }));
        // Unmapped site: flagged.
        let v = audit_patches(&p, &[(0xdead, Instr::Nop)]);
        assert!(matches!(v[0], AuditViolation::PatchTargetUnmapped { .. }));
    }
}
