//! The nine timed probe primitives (paper Listing 2).
//!
//! Each probe is the instruction sequence
//! `mfence; rdtsc -> R14; <op>; mfence; rdtsc -> R15`, executed as injected
//! attacker code; the measurement is `R15 - R14`, exactly as the paper
//! measures with inline assembly.

use smack_uarch::isa::{Instr, MemRef, MemSize, Reg};
use smack_uarch::{Addr, CompiledProbe, Machine, ProbeKind, StepError, ThreadId};

/// Register conventions for probe sequences.
const ADDR_REG: Reg = Reg::R13;
const T_START: Reg = Reg::R14;
const T_END: Reg = Reg::R15;

/// The timed instruction sequence for one probe of `kind`.
///
/// The target address is taken from `R13`; timings land in `R14`/`R15`.
/// The sequences are built at compile time: a prober issues millions of
/// measurements per experiment, so the hot path must not allocate.
pub fn probe_sequence(kind: ProbeKind) -> &'static [Instr; 5] {
    const MEM: MemRef = MemRef { base: ADDR_REG, disp: 0 };
    const fn seq(op: Instr) -> [Instr; 5] {
        [
            Instr::Mfence,
            Instr::Rdtsc { dst: T_START },
            op,
            Instr::Mfence,
            Instr::Rdtsc { dst: T_END },
        ]
    }
    match kind {
        ProbeKind::Load => {
            const S: [Instr; 5] = seq(Instr::Load { dst: Reg::R12, mem: MEM, size: MemSize::Quad });
            &S
        }
        ProbeKind::Flush => {
            const S: [Instr; 5] = seq(Instr::Clflush { mem: MEM });
            &S
        }
        ProbeKind::FlushOpt => {
            const S: [Instr; 5] = seq(Instr::Clflushopt { mem: MEM });
            &S
        }
        ProbeKind::Store => {
            const S: [Instr; 5] = seq(Instr::StoreImm { mem: MEM, imm: 0x90 });
            &S
        }
        ProbeKind::Lock => {
            const S: [Instr; 5] = seq(Instr::LockInc { mem: MEM });
            &S
        }
        ProbeKind::Prefetch => {
            const S: [Instr; 5] = seq(Instr::PrefetchT0 { mem: MEM });
            &S
        }
        ProbeKind::PrefetchNta => {
            const S: [Instr; 5] = seq(Instr::PrefetchNta { mem: MEM });
            &S
        }
        ProbeKind::Execute => {
            const S: [Instr; 5] = seq(Instr::CallReg { target: ADDR_REG });
            &S
        }
        ProbeKind::Clwb => {
            const S: [Instr; 5] = seq(Instr::Clwb { mem: MEM });
            &S
        }
    }
}

/// τ_w exposure-window jitter: the per-trace prime→probe wait derived
/// from a base wait, a jitter amplitude, and the trace seed.
///
/// The remaining RSA/SRP recovery gap is *systematic* decode error: when
/// every trace samples the victim with the identical exposure window, the
/// same multiply events fall through the same cracks in every trace, and
/// no amount of majority voting can recover them. Jittering τ_w per trace
/// moves the sampling phase so those misses decorrelate across traces.
/// The draw is a pure function of `seed` (splitmix64), so every run and
/// every runner thread sees the same wait for the same trace, and
/// `jitter == 0` is the exact identity.
pub fn jittered_wait(base: u64, jitter: u64, seed: u64) -> u64 {
    if jitter == 0 {
        return base;
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let offset = (z % (2 * jitter + 1)) as i64 - jitter as i64;
    base.saturating_add_signed(offset).max(1)
}

/// A probe measurement.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ProbeTiming {
    /// Measured `rdtsc` delta in cycles.
    pub cycles: u64,
    /// The probed line.
    pub line: Addr,
    /// Probe class used.
    pub kind: ProbeKind,
}

/// Convenience wrapper running probes on one attacker thread.
///
/// ```no_run
/// use smack::Prober;
/// use smack_uarch::{Machine, MicroArch, ProbeKind, ThreadId, Addr};
///
/// let mut m = Machine::new(MicroArch::CascadeLake.profile());
/// let mut prober = Prober::new(ThreadId::T0);
/// let t = prober.measure(&mut m, ProbeKind::Store, Addr(0x1000)).unwrap();
/// assert!(t.cycles > 0);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Prober {
    tid: ThreadId,
    /// Each probe class's sequence precompiled for the engine's fused
    /// probe tier. Built once per prober — `measure` runs millions of
    /// times per experiment and must not re-recognize the template per
    /// probe.
    compiled: [CompiledProbe; ProbeKind::ALL.len()],
}

impl Prober {
    /// A prober running on `tid` (the thread must be idle / attacker-owned).
    pub fn new(tid: ThreadId) -> Prober {
        let compiled = ProbeKind::ALL.map(|kind| {
            CompiledProbe::compile(probe_sequence(kind)).expect("every probe template compiles")
        });
        Prober { tid, compiled }
    }

    /// The attacker thread.
    pub fn thread(&self) -> ThreadId {
        self.tid
    }

    /// Run one timed probe of `kind` against `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Unsupported`] when the microarchitecture lacks
    /// the instruction (an `×` cell in Table 3), or any error from the
    /// sibling victim.
    pub fn measure(
        &mut self,
        machine: &mut Machine,
        kind: ProbeKind,
        addr: Addr,
    ) -> Result<ProbeTiming, StepError> {
        let mut cycles = [0];
        self.measure_lines(machine, kind, &[addr], &mut cycles)?;
        Ok(ProbeTiming { cycles: cycles[0], line: addr.line(), kind })
    }

    /// Run one timed probe of `kind` against each line in `addrs`, back
    /// to back, writing each measured `rdtsc` delta to the matching slot
    /// of `out` — the batched probe round ([`Machine::run_probes`]): one
    /// engine entry when the engine allows it, per-probe otherwise; same
    /// machine state and timings as a [`Prober::measure`] per line either
    /// way.
    ///
    /// # Errors
    ///
    /// As [`Prober::measure`], at the first probe that fails.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `addrs` differ in length.
    pub fn measure_lines(
        &mut self,
        machine: &mut Machine,
        kind: ProbeKind,
        addrs: &[Addr],
        out: &mut [u64],
    ) -> Result<(), StepError> {
        machine.run_probes(self.tid, &self.compiled[kind.index()], addrs, out)?;
        Ok(())
    }

    /// Execute (call) the line at `addr` without timing it — the priming
    /// primitive.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn execute_line(&mut self, machine: &mut Machine, addr: Addr) -> Result<(), StepError> {
        self.execute_lines(machine, &[addr])
    }

    /// Execute (call) every line in `addrs` back to back — the batched
    /// priming primitive. One fused engine entry for the whole batch when
    /// the engine allows it, per-call otherwise; same machine state either
    /// way. Called once per prime with the eviction set's ways, so the
    /// hot path stays allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn execute_lines(
        &mut self,
        machine: &mut Machine,
        addrs: &[Addr],
    ) -> Result<(), StepError> {
        machine.run_calls(self.tid, addrs)?;
        Ok(())
    }

    /// Flush the line at `addr` with a real (timed but discarded) `clflush`.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn flush_line(&mut self, machine: &mut Machine, addr: Addr) -> Result<(), StepError> {
        machine.set_reg(self.tid, ADDR_REG, addr.0);
        machine.run_sequence(self.tid, &[Instr::Clflush { mem: MemRef::base(ADDR_REG) }])?;
        Ok(())
    }

    /// Busy-wait `cycles` (the "empty for loop" between prime and probe).
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from the sibling victim.
    pub fn wait(&mut self, machine: &mut Machine, cycles: u64) -> Result<(), StepError> {
        machine.advance(self.tid, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smack_uarch::asm::Assembler;
    use smack_uarch::{MicroArch, Placement};

    const T0: ThreadId = ThreadId::T0;

    fn machine_with_oracle(arch: MicroArch) -> (Machine, Addr) {
        let mut m = Machine::new(arch.profile());
        let mut a = Assembler::new(0x1_0000);
        a.nop().nop().ret();
        m.load_program(&a.assemble().unwrap());
        (m, Addr(0x1_0000))
    }

    #[test]
    fn jittered_wait_is_deterministic_bounded_and_identity_at_zero() {
        for seed in 0..200u64 {
            assert_eq!(jittered_wait(700, 0, seed), 700, "zero jitter is the identity");
            let w = jittered_wait(700, 50, seed);
            assert_eq!(w, jittered_wait(700, 50, seed), "pure function of the seed");
            assert!((650..=750).contains(&w), "seed {seed}: wait {w} out of band");
        }
        // Different seeds actually move the window.
        let distinct: std::collections::HashSet<u64> =
            (0..200u64).map(|s| jittered_wait(700, 50, s)).collect();
        assert!(distinct.len() > 20, "jitter spreads: {} distinct waits", distinct.len());
        // The wait never collapses to zero.
        assert!(jittered_wait(1, 100, 3) >= 1);
    }

    #[test]
    fn all_kinds_produce_sequences_with_op_between_fences() {
        for kind in ProbeKind::ALL {
            let seq = probe_sequence(kind);
            assert_eq!(seq.len(), 5, "{kind}");
            assert_eq!(seq[0], Instr::Mfence);
            assert!(matches!(seq[1], Instr::Rdtsc { .. }));
            assert_eq!(seq[3], Instr::Mfence);
            assert!(matches!(seq[4], Instr::Rdtsc { .. }));
        }
    }

    #[test]
    fn store_probe_distinguishes_l1i_hit() {
        let (mut m, oracle) = machine_with_oracle(MicroArch::CascadeLake);
        let mut p = Prober::new(T0);
        m.warm_tlb(T0, oracle);
        m.place_line(oracle, Placement::L1i);
        let hot = p.measure(&mut m, ProbeKind::Store, oracle).unwrap();
        m.place_line(oracle, Placement::L2);
        let cold = p.measure(&mut m, ProbeKind::Store, oracle).unwrap();
        assert!(hot.cycles > cold.cycles + 150, "hot {} cold {}", hot.cycles, cold.cycles);
    }

    #[test]
    fn execute_probe_reflects_fetch_hierarchy() {
        let (mut m, oracle) = machine_with_oracle(MicroArch::CascadeLake);
        let mut p = Prober::new(T0);
        m.warm_tlb(T0, oracle);
        m.place_line(oracle, Placement::DramOnly);
        let dram = p.measure(&mut m, ProbeKind::Execute, oracle).unwrap();
        // Line is now cached by the execute itself.
        let hit = p.measure(&mut m, ProbeKind::Execute, oracle).unwrap();
        assert!(dram.cycles > hit.cycles + 150, "dram {} hit {}", dram.cycles, hit.cycles);
    }

    #[test]
    fn amd_timings_are_quantized() {
        let (mut m, oracle) = machine_with_oracle(MicroArch::AmdRyzen5);
        let mut p = Prober::new(T0);
        m.warm_tlb(T0, oracle);
        for placement in [Placement::L1i, Placement::L2, Placement::DramOnly] {
            m.place_line(oracle, placement);
            let t = p.measure(&mut m, ProbeKind::Store, oracle).unwrap();
            assert_eq!(t.cycles % 21, 0, "AMD rdtsc readings come in 21-cycle quanta");
        }
    }

    #[test]
    fn unsupported_kind_errors() {
        let (mut m, oracle) = machine_with_oracle(MicroArch::IvyBridge);
        let mut p = Prober::new(T0);
        let err = p.measure(&mut m, ProbeKind::FlushOpt, oracle).unwrap_err();
        assert_eq!(err, StepError::Unsupported { kind: ProbeKind::FlushOpt });
    }

    #[test]
    fn execute_line_fills_l1i() {
        let (mut m, oracle) = machine_with_oracle(MicroArch::CascadeLake);
        let mut p = Prober::new(T0);
        assert!(!m.residency(oracle).l1i);
        p.execute_line(&mut m, oracle).unwrap();
        assert!(m.residency(oracle).l1i);
        p.flush_line(&mut m, oracle).unwrap();
        assert!(!m.residency(oracle).cached_anywhere());
    }
}
