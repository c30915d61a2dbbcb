//! Static audit of self-modifying-code (SMC) store targets.
//!
//! A store that lands mid-instruction would desynchronize decode. This
//! lint checks, from the instruction stream alone, that **SMC patch
//! targets sit on instruction boundaries**: candidate patch targets are
//! harvested from immediate operands that point into the program's code
//! lines (the `mov_imm reg, target; store (reg)` self-modifying idiom),
//! and each must be the address of an instruction or of a gap between
//! instructions.

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
}
