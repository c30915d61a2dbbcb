//! Modular-exponentiation victim programs.
//!
//! Both victims read the exponent as a bit array from simulated memory and
//! drive their square/multiply routines with real data-dependent control
//! flow; nothing about the secret is baked into the code. The square and
//! multiply routines live in *different* L1i sets (as `mpih_sqr_n` vs
//! `mul_n` do in Libgcrypt, and as the paper's attacks require): monitoring
//! the multiply set and counting idle gaps between activities recovers the
//! exponent's structure.
//!
//! The routines model their O(limbs²) Montgomery-arithmetic cost with a
//! `Delay` pseudo-instruction — the attacks observe how long a routine
//! keeps running from its cache lines, not the ALU work inside it — and
//! append an op code to an in-memory log so tests can cross-validate the executed schedule against
//! [`smack_crypto::modexp`]'s schedule extraction.

use smack_crypto::Bignum;
use smack_uarch::asm::{Assembler, Program};
use smack_uarch::isa::{MemRef, Reg};
use smack_uarch::Addr;

/// Which exponentiation algorithm the victim runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ModexpAlgorithm {
    /// Left-to-right binary square-and-multiply (Libgcrypt 1.5.1 RSA).
    BinaryLtr,
    /// Sliding-window with the given window size (OpenSSL `BN_mod_exp_mont`).
    SlidingWindow {
        /// Window size in bits (OpenSSL uses up to 6).
        window: u64,
    },
    /// Constant-time Montgomery ladder: one square and one multiply per
    /// bit regardless of its value — the §6.2 countermeasure. The
    /// instruction-cache schedule carries no key information.
    MontgomeryLadder,
}

/// Op codes written to the in-memory schedule log.
pub const LOG_SQUARE: u8 = 1;
/// Multiply op code in the schedule log.
pub const LOG_MULTIPLY: u8 = 2;

/// Builder for a [`ModexpVictim`].
#[derive(Clone, Debug)]
pub struct ModexpVictimBuilder {
    algorithm: ModexpAlgorithm,
    code_base: u64,
    data_base: u64,
    sqr_set: usize,
    mul_set: usize,
    sqr_delay: u32,
    mul_delay: u32,
    l1i_sets: usize,
}

impl ModexpVictimBuilder {
    /// Start building a victim for `algorithm`.
    pub fn new(algorithm: ModexpAlgorithm) -> ModexpVictimBuilder {
        ModexpVictimBuilder {
            algorithm,
            code_base: 0x0100_0000,
            data_base: 0x0200_0000,
            sqr_set: 20,
            mul_set: 40,
            sqr_delay: 500,
            mul_delay: 500,
            l1i_sets: 64,
        }
    }

    /// Base address for the victim's code region (must be line-aligned).
    pub fn code_base(&mut self, base: u64) -> &mut Self {
        assert_eq!(base % 64, 0, "code base must be line-aligned");
        self.code_base = base;
        self
    }

    /// Base address for the exponent bit array and schedule log.
    pub fn data_base(&mut self, base: u64) -> &mut Self {
        self.data_base = base;
        self
    }

    /// L1i set for the square routine.
    pub fn sqr_set(&mut self, set: usize) -> &mut Self {
        self.sqr_set = set;
        self
    }

    /// L1i set for the multiply routine (the set the attacker monitors).
    pub fn mul_set(&mut self, set: usize) -> &mut Self {
        self.mul_set = set;
        self
    }

    /// Cycle cost of one square/multiply, modeling the O(limbs²)
    /// Montgomery arithmetic for a `bits`-bit modulus.
    pub fn operand_bits(&mut self, bits: usize) -> &mut Self {
        let d = Self::delay_for_bits(bits);
        self.sqr_delay = d;
        self.mul_delay = d;
        self
    }

    /// The per-operation delay model: ~500 cycles at 1024 bits, scaling
    /// quadratically with the limb count (paper §5.3 reports 500–600-cycle
    /// squares at group size 1024 and 20k+ at 6144).
    pub fn delay_for_bits(bits: usize) -> u32 {
        let r = bits as f64 / 1024.0;
        (500.0 * r * r) as u32
    }

    /// Build the victim for this machine geometry.
    ///
    /// # Panics
    ///
    /// Panics if the square and multiply sets collide with each other or
    /// with the driver's code lines.
    pub fn build(&self) -> ModexpVictim {
        assert_ne!(self.sqr_set, self.mul_set, "square/multiply sets must differ");
        let sets = self.l1i_sets;
        // Each routine also executes the line after its own (the loop
        // tail), so that line's set must not be the other routine's
        // monitored set.
        assert_ne!((self.sqr_set + 1) % sets, self.mul_set, "sqr loop tail hits the mul set");
        assert_ne!((self.mul_set + 1) % sets, self.sqr_set, "mul loop tail hits the sqr set");
        // Driver occupies the first few lines of the code region; routines
        // are placed one page up so their tags differ from everything else.
        let driver_base = self.code_base;
        let routine_page = self.code_base + 0x10_000;
        let sqr_addr = routine_page + (self.sqr_set as u64) * 64;
        let mul_addr = routine_page + 0x1000 + (self.mul_set as u64) * 64;
        let driver_sets: Vec<usize> =
            (0..8).map(|i| Addr(driver_base + i * 64).set_index(sets)).collect();
        assert!(
            !driver_sets.contains(&self.mul_set),
            "driver code collides with the monitored multiply set; move code_base or mul_set"
        );

        let exp_addr = self.data_base;
        let log_addr = self.data_base + 0x10_000;

        let mut a = Assembler::new(driver_base);
        match self.algorithm {
            ModexpAlgorithm::BinaryLtr => self.emit_binary(&mut a),
            ModexpAlgorithm::SlidingWindow { window } => self.emit_sliding(&mut a, window),
            ModexpAlgorithm::MontgomeryLadder => self.emit_ladder(&mut a),
        }
        // Square and multiply routines: log the op, then model the
        // O(limbs²) big-int work as a loop that keeps *executing* the
        // routine's own cache line for the whole operation — real `mul_n` /
        // `mpih_sqr_n` run their inner loop continuously, which is exactly
        // what makes the victim's set activity observable at any attacker
        // sampling phase (the paper's Figure 4 dips). The loop body spans
        // the routine's line and the next line, so every iteration
        // re-enters (and refetches) the monitored line.
        Self::emit_routine(&mut a, sqr_addr, "sqr", LOG_SQUARE, self.sqr_delay);
        Self::emit_routine(&mut a, mul_addr, "mul", LOG_MULTIPLY, self.mul_delay);
        let program = a.assemble().expect("victim assembles");
        ModexpVictim {
            program,
            entry: driver_base,
            exp_addr: Addr(exp_addr),
            log_addr: Addr(log_addr),
            sqr_line: Addr(sqr_addr),
            mul_line: Addr(mul_addr),
            sqr_set: self.sqr_set,
            mul_set: self.mul_set,
            algorithm: self.algorithm,
        }
    }

    /// Emit one big-int routine at `addr`: log byte, then `iters` loop
    /// turns of `delay(chunk)` with the loop tail on the *next* line so
    /// each turn refetches the routine's own line. Registers: R10 = log
    /// cursor (caller state), R11 = loop counter (scratch).
    fn emit_routine(a: &mut Assembler, addr: u64, name: &str, log_code: u8, delay: u32) {
        // ~64-cycle turns: coarse enough to stay cheap, fine enough that
        // the routine's line activity is continuous at attacker timescales.
        let iters = (delay / 64).max(1);
        let chunk = delay / iters;
        let entry = format!("{name}_n");
        let lbl_loop = format!("{name}_n_body");
        let lbl_tail = format!("{name}_n_tail");
        let lbl_done = format!("{name}_n_done");
        a.org(addr)
            .label(&entry)
            .push(smack_uarch::isa::Instr::StoreImm { mem: MemRef::base(Reg::R10), imm: log_code })
            .add_imm(Reg::R10, 1)
            .mov_imm(Reg::R11, iters as u64)
            .label(&lbl_loop)
            .delay(chunk)
            .add_imm(Reg::R11, -1)
            .cmp_imm(Reg::R11, 0)
            .je(lbl_done.as_str())
            .jmp(lbl_tail.as_str());
        a.org(addr + 64).label(&lbl_tail).jmp(lbl_loop.as_str()).label(&lbl_done).ret();
    }

    /// Binary left-to-right driver:
    /// `for i in (0..nbits).rev() { sqr(); if bit[i] { mul(); } }`.
    ///
    /// Registers: R1 = exp bit array, R2 = nbits, R10 = log cursor.
    /// Bits are stored LSB-first (byte `i` = bit `i`).
    fn emit_binary(&self, a: &mut Assembler) {
        a.label("entry")
            // R4 = i = nbits - 1, counts down; unsigned wrap ends the loop.
            .mov(Reg::R4, Reg::R2)
            .add_imm(Reg::R4, -1)
            .label("loop")
            .cmp(Reg::R4, Reg::R2)
            .jge("done") // i wrapped past zero
            .call("sqr_n")
            .mov(Reg::R5, Reg::R1)
            .add(Reg::R5, Reg::R4)
            .load_byte(Reg::R6, MemRef::base(Reg::R5))
            .cmp_imm(Reg::R6, 0)
            .je("skip")
            .call("mul_n")
            .label("skip")
            .add_imm(Reg::R4, -1)
            .jmp("loop")
            .label("done")
            .halt();
    }

    /// Montgomery-ladder driver: `for each bit { sqr(); mul(); }` with no
    /// secret-dependent control flow at all — the constant-time
    /// countermeasure of §6.2. (The bit still selects *operands* on real
    /// hardware, but never the instruction stream.)
    fn emit_ladder(&self, a: &mut Assembler) {
        a.label("entry")
            .mov(Reg::R4, Reg::R2)
            .add_imm(Reg::R4, -1)
            .label("loop")
            .cmp(Reg::R4, Reg::R2)
            .jge("done") // index wrapped below zero
            .call("sqr_n")
            .call("mul_n")
            .add_imm(Reg::R4, -1)
            .jmp("loop")
            .label("done")
            .halt();
    }

    /// Sliding-window driver mirroring paper Listing 4 / OpenSSL
    /// `BN_mod_exp_mont`.
    ///
    /// Registers: R1 = exp bits (LSB-first), R2 = nbits, R3 = window,
    /// R9 = started flag, R10 = log cursor.
    fn emit_sliding(&self, a: &mut Assembler, window: u64) {
        a.label("entry")
            .mov_imm(Reg::R3, window)
            .mov_imm(Reg::R9, 0) // started = false
            .mov(Reg::R4, Reg::R2)
            .add_imm(Reg::R4, -1) // wstart
            .label("outer")
            .cmp(Reg::R4, Reg::R2)
            .jge("done") // wstart wrapped below zero
            .mov(Reg::R5, Reg::R1)
            .add(Reg::R5, Reg::R4)
            .load_byte(Reg::R6, MemRef::base(Reg::R5))
            .cmp_imm(Reg::R6, 0)
            .jne("window")
            // Lone zero bit: square (once started) and move on.
            .cmp_imm(Reg::R9, 0)
            .je("zero_next")
            .call("sqr_n")
            .label("zero_next")
            .add_imm(Reg::R4, -1)
            .jmp("outer")
            // Window accumulation: find the furthest set bit within the
            // window (R7 = i, R8 = wend).
            .label("window")
            .mov_imm(Reg::R7, 1)
            .mov_imm(Reg::R8, 0)
            .label("scan")
            .cmp(Reg::R7, Reg::R3)
            .jge("scan_done")
            .cmp(Reg::R4, Reg::R7)
            .jlt("scan_done") // wstart - i < 0
            .mov(Reg::R5, Reg::R4)
            .sub(Reg::R5, Reg::R7)
            .add(Reg::R5, Reg::R1)
            .load_byte(Reg::R6, MemRef::base(Reg::R5))
            .cmp_imm(Reg::R6, 0)
            .je("scan_next")
            .mov(Reg::R8, Reg::R7) // wend = i
            .label("scan_next")
            .add_imm(Reg::R7, 1)
            .jmp("scan")
            .label("scan_done")
            // (wend + 1) squares once started.
            .cmp_imm(Reg::R9, 0)
            .je("after_sqrs")
            .mov_imm(Reg::R7, 0)
            .label("sqr_loop")
            .call("sqr_n")
            .add_imm(Reg::R7, 1)
            .cmp(Reg::R7, Reg::R8)
            .jcc(smack_uarch::isa::Cond::Le, "sqr_loop")
            .label("after_sqrs")
            .call("mul_n")
            .mov_imm(Reg::R9, 1) // started = true
            // wstart -= wend + 1
            .sub(Reg::R4, Reg::R8)
            .add_imm(Reg::R4, -1)
            .jmp("outer")
            .label("done")
            .halt();
    }
}

/// A built modular-exponentiation victim.
#[derive(Clone, Debug)]
pub struct ModexpVictim {
    /// The assembled program (driver + routines).
    pub program: Program,
    /// Entry point.
    pub entry: u64,
    /// Address of the exponent bit array (one byte per bit, LSB-first).
    pub exp_addr: Addr,
    /// Address of the schedule log the routines append to.
    pub log_addr: Addr,
    /// Code line of the square routine.
    pub sqr_line: Addr,
    /// Code line of the multiply routine (the attacker's monitored line).
    pub mul_line: Addr,
    /// L1i set of the square routine.
    pub sqr_set: usize,
    /// L1i set of the multiply routine.
    pub mul_set: usize,
    /// Algorithm this victim runs.
    pub algorithm: ModexpAlgorithm,
}

impl ModexpVictim {
    /// Write `exp` into simulated memory as the victim's bit array and
    /// return the `(entry, args)` pair to start it with.
    pub fn stage(&self, machine: &mut smack_uarch::Machine, exp: &Bignum) -> (u64, [u64; 2]) {
        let nbits = exp.bit_len();
        for i in 0..nbits {
            machine.write_u8(self.exp_addr.offset(i as i64), exp.bit(i) as u8);
        }
        // Zero the log and point R10 at it when starting.
        (self.entry, [self.exp_addr.0, nbits as u64])
    }

    /// Declare this victim's secret inputs for the static analyzer: the
    /// exponent bit region. The span covers the whole reservation (up to
    /// the schedule log) because the staged bit count varies per run.
    pub fn secret_spec(&self) -> smack_analysis::SecretSpec {
        smack_analysis::SecretSpec {
            tainted_memory: vec![smack_analysis::AddrRange::span(
                self.exp_addr.0,
                self.log_addr.0 - self.exp_addr.0,
            )],
            ..smack_analysis::SecretSpec::default()
        }
    }

    /// Start the victim on `tid`, with `exp` staged in memory.
    pub fn start(
        &self,
        machine: &mut smack_uarch::Machine,
        tid: smack_uarch::ThreadId,
        exp: &Bignum,
    ) {
        let (entry, args) = self.stage(machine, exp);
        machine.set_reg(tid, Reg::R10, self.log_addr.0);
        machine.start_program(tid, entry, &args);
    }

    /// Read back the executed schedule log (after the victim halts).
    pub fn read_log(&self, machine: &smack_uarch::Machine, tid: smack_uarch::ThreadId) -> Vec<u8> {
        let end = machine.reg(tid, Reg::R10);
        let len = (end - self.log_addr.0) as usize;
        machine.read_bytes(self.log_addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smack_crypto::modexp::{binary_ltr_schedule, sliding_window_schedule, ModexpOp};
    use smack_crypto::WindowSizing;
    use smack_uarch::isa::Instr;
    use smack_uarch::{Machine, MicroArch, ThreadId};

    fn run_victim(victim: &ModexpVictim, exp: &Bignum) -> Vec<u8> {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        m.load_program(&victim.program);
        victim.start(&mut m, ThreadId::T1, exp);
        m.run_until_halt(ThreadId::T1, 50_000_000).expect("victim halts");
        victim.read_log(&m, ThreadId::T1)
    }

    fn ops_to_log(ops: &[ModexpOp]) -> Vec<u8> {
        ops.iter()
            .map(|o| match o {
                ModexpOp::Square => LOG_SQUARE,
                ModexpOp::Multiply => LOG_MULTIPLY,
            })
            .collect()
    }

    /// Both big-int routines decode as the counted delay loops whose
    /// turns the engine retires in closed form while an attacker samples
    /// the victim.
    #[test]
    fn routines_decode_as_counted_loops() {
        let victim = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr).build();
        let decoded = smack_uarch::DecodedProgram::compile(&victim.program);
        for line in [victim.sqr_line, victim.mul_line] {
            let head = (0..decoded.len() as u32)
                .map(|i| decoded.get(i))
                .find(|d| d.line == line.0 && matches!(d.instr, Instr::Delay { .. }))
                .expect("the routine's loop starts with a delay");
            assert_ne!(head.counted, smack_uarch::decoded::NO_IDX, "{line:?}");
            assert_eq!(head.loop_pos, 0);
        }
    }

    #[test]
    fn binary_victim_schedule_matches_crypto_ground_truth() {
        let mut rng = SmallRng::seed_from_u64(21);
        let victim = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr).build();
        for bits in [16usize, 64, 256] {
            let exp = Bignum::random_bits(&mut rng, bits);
            let log = run_victim(&victim, &exp);
            assert_eq!(log, ops_to_log(&binary_ltr_schedule(&exp)), "bits={bits}");
        }
    }

    #[test]
    fn sliding_victim_schedule_matches_crypto_ground_truth() {
        let mut rng = SmallRng::seed_from_u64(22);
        for bits in [80usize, 256, 700] {
            let window = WindowSizing::for_exponent_bits(bits) as u64;
            let victim =
                ModexpVictimBuilder::new(ModexpAlgorithm::SlidingWindow { window }).build();
            let exp = Bignum::random_bits(&mut rng, bits);
            let log = run_victim(&victim, &exp);
            assert_eq!(
                log,
                ops_to_log(&sliding_window_schedule(&exp).ops),
                "bits={bits} window={window}"
            );
        }
    }

    #[test]
    fn routines_live_in_requested_sets() {
        let mut b = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr);
        b.sqr_set(7).mul_set(53);
        let v = b.build();
        assert_eq!(v.sqr_line.set_index(64), 7);
        assert_eq!(v.mul_line.set_index(64), 53);
        assert_ne!(v.sqr_line.line(), v.mul_line.line());
    }

    #[test]
    fn delay_scales_quadratically() {
        let d1 = ModexpVictimBuilder::delay_for_bits(1024);
        let d2 = ModexpVictimBuilder::delay_for_bits(2048);
        let d6 = ModexpVictimBuilder::delay_for_bits(6144);
        assert_eq!(d1, 500);
        assert_eq!(d2, 2000);
        assert_eq!(d6, 18000);
        assert!(d6 > d2 && d2 > d1);
    }

    #[test]
    fn ladder_schedule_is_key_independent() {
        let victim = ModexpVictimBuilder::new(ModexpAlgorithm::MontgomeryLadder).build();
        let mut rng = SmallRng::seed_from_u64(23);
        let a = Bignum::random_bits(&mut rng, 64);
        let mut b = Bignum::random_bits(&mut rng, 64);
        // Force a different bit pattern with the same length.
        if a == b {
            b = b.add(&Bignum::one());
        }
        let log_a = run_victim(&victim, &a);
        let log_b = run_victim(&victim, &b);
        assert_eq!(log_a, log_b, "constant-time: identical op schedules");
        // One square + one multiply per bit.
        assert_eq!(log_a.len(), 2 * a.bit_len());
    }

    #[test]
    #[should_panic(expected = "sets must differ")]
    fn same_sets_rejected() {
        let mut b = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr);
        b.sqr_set(5).mul_set(5);
        b.build();
    }
}
