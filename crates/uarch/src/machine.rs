//! [`Machine`]: the public facade over the engine.
//!
//! A `Machine` is one simulated physical core with two SMT threads plus
//! memory. Victims run as loaded programs; attackers are usually Rust code
//! injecting straight-line instruction sequences ([`Machine::run_sequence`])
//! or calling into simulated code ([`Machine::call`]). The machine keeps the
//! two threads' clocks aligned by stepping whichever runnable thread is
//! behind, so machine clears, cache evictions and stalls land on the sibling
//! at (approximately) the right time.

use crate::addr::Addr;
use crate::asm::Program;
use crate::counters::CounterBank;
use crate::engine::{
    CompiledProbe, Engine, InjectedNext, SeqOutcome, StepError, ThreadId, ThreadState, DELAY_CHUNK,
    STEP_BUDGET,
};
use crate::hierarchy::Residency;
use crate::isa::{Instr, Reg};
use crate::noise::NoiseConfig;
use crate::profile::UarchProfile;
use crate::trace::Event;

/// Where to place a line for experiment setup (paper §4.1 prepares the
/// oracle line in each of five microarchitectural states).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Placement {
    /// In the L1 instruction cache (and, inclusively, L2 + LLC).
    L1i,
    /// In the L1 data cache (and L2 + LLC).
    L1d,
    /// In L2 (and LLC) but in neither L1.
    L2,
    /// Only in the LLC.
    Llc,
    /// Not cached anywhere.
    DramOnly,
}

impl Placement {
    /// The five paper states in presentation order.
    pub const ALL: [Placement; 5] =
        [Placement::L1i, Placement::L1d, Placement::L2, Placement::Llc, Placement::DramOnly];

    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Placement::L1i => "L1i",
            Placement::L1d => "L1d",
            Placement::L2 => "L2",
            Placement::Llc => "LLC",
            Placement::DramOnly => "DRAM",
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One simulated SMT physical core plus memory. See the
/// [module documentation](self).
#[derive(Debug)]
pub struct Machine {
    engine: Engine,
    /// Steps handed to the engine per [`Engine::run_burst`] call. Purely a
    /// scheduling granularity: output is bit-identical for every value
    /// (the burst loop makes the same per-instruction causal decision the
    /// machine used to make), so this only trades boundary crossings
    /// against step-budget check frequency.
    burst: u64,
}

/// Default engine burst size: `SMACK_BURST` when set to a positive integer
/// (the CI determinism gate runs the repro at 1 vs the default and diffs
/// CSVs), 4096 otherwise.
fn default_burst() -> u64 {
    static BURST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *BURST.get_or_init(|| {
        std::env::var("SMACK_BURST")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|n| *n > 0)
            .unwrap_or(4096)
    })
}

impl Machine {
    /// Create a machine with quiet (deterministic) noise.
    pub fn new(profile: UarchProfile) -> Machine {
        Machine::with_noise(profile, NoiseConfig::quiet(), 0x5eed)
    }

    /// Create a machine with an explicit noise model and seed.
    pub fn with_noise(profile: UarchProfile, noise: NoiseConfig, seed: u64) -> Machine {
        Machine { engine: Engine::new(profile, noise, seed), burst: default_burst() }
    }

    /// Override the engine burst size for this machine (default: the
    /// `SMACK_BURST` environment variable, else 4096). Any positive value
    /// produces bit-identical output; see the `burst` field notes.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn set_burst_steps(&mut self, steps: u64) {
        assert!(steps > 0, "burst size must be positive");
        self.burst = steps;
    }

    /// The current engine burst size.
    pub fn burst_steps(&self) -> u64 {
        self.burst
    }

    /// Switch between the decoded fast path (default) and the original
    /// map-lookup reference interpreter — see
    /// [`Engine::set_decoded_fast_path`]. Reset restores the default.
    pub fn set_decoded_fast_path(&mut self, on: bool) {
        self.engine.set_decoded_fast_path(on);
    }

    /// Whether the decoded fast path is active.
    pub fn decoded_fast_path(&self) -> bool {
        self.engine.decoded_fast_path()
    }

    /// Enable or disable the fused probe tier (one-pass retirement of
    /// compiled `mfence; rdtsc; <op>; mfence; rdtsc` probe sequences and
    /// batched idle advances) — see [`Engine::set_fused_probes`]. The
    /// default comes from the `SMACK_FUSED_PROBES` environment variable
    /// (`0` = off, anything else = on, unset = on), mirroring
    /// `SMACK_BURST`; output is bit-identical either way, so the
    /// toggle exists for the CI determinism gate and for benchmarking the
    /// per-step probe path. Reset restores the default.
    pub fn set_fused_probes(&mut self, on: bool) {
        self.engine.set_fused_probes(on);
    }

    /// Whether the fused probe tier is active.
    pub fn fused_probes(&self) -> bool {
        self.engine.fused_probes()
    }

    /// The microarchitecture profile.
    pub fn profile(&self) -> &UarchProfile {
        self.engine.profile()
    }

    /// Restore this machine to the cold power-on state — cold caches, TLBs
    /// and branch predictor, reset counters and clocks, no loaded code,
    /// zeroed memory — and reseed the noise source, reusing the existing
    /// allocations instead of rebuilding the hierarchy. A reset machine is
    /// behaviorally indistinguishable from
    /// `Machine::with_noise(profile, noise, seed)`: for the same seed and
    /// workload it produces bit-identical timings, traces and reports.
    pub fn reset(&mut self, noise: NoiseConfig, seed: u64) {
        self.engine.reset(noise, seed);
    }

    /// Replace the noise configuration (keeps the RNG stream).
    pub fn set_noise(&mut self, cfg: NoiseConfig) {
        self.engine.noise_mut().set_config(cfg);
    }

    // ---- code & memory -----------------------------------------------------

    /// Load (merge) a program into the core's address space.
    pub fn load_program(&mut self, prog: &Program) {
        self.engine.load(prog);
    }

    /// Apply a self-modifying write-back: overwrite already-loaded
    /// instructions with `prog`'s, re-decoding the rewritten entries into
    /// the decoded side table in place (see [`Engine::patch_code`]). Use
    /// this instead of [`Machine::load_program`] when the new code
    /// *replaces* instructions at addresses that are already mapped.
    pub fn patch_program(&mut self, prog: &Program) {
        self.engine.patch_code(prog);
    }

    /// Write bytes to simulated memory (no timing effects).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        self.engine.mem_mut().write_bytes(addr, bytes);
    }

    /// Read bytes from simulated memory (no timing effects).
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        self.engine.mem().read_bytes(addr, len)
    }

    /// Write a u64 to simulated memory (no timing effects).
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.engine.mem_mut().write_u64(addr, v);
    }

    /// Read a u64 from simulated memory (no timing effects).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.engine.mem().read_u64(addr)
    }

    /// Write a byte to simulated memory (no timing effects).
    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        self.engine.mem_mut().write_u8(addr, v);
    }

    /// Read a byte from simulated memory (no timing effects).
    pub fn read_u8(&self, addr: Addr) -> u8 {
        self.engine.mem().read_u8(addr)
    }

    // ---- cache state -------------------------------------------------------

    /// Which caches hold the line containing `addr` right now.
    pub fn residency(&self, addr: Addr) -> Residency {
        self.engine.hierarchy().residency(addr)
    }

    /// Place the line containing `addr` in an exact microarchitectural
    /// state (experiment setup; no timing effects).
    pub fn place_line(&mut self, addr: Addr, placement: Placement) {
        let r = match placement {
            Placement::L1i => Residency { l1i: true, l1d: false, l2: true, llc: true },
            Placement::L1d => Residency { l1i: false, l1d: true, l2: true, llc: true },
            Placement::L2 => Residency { l1i: false, l1d: false, l2: true, llc: true },
            Placement::Llc => Residency { l1i: false, l1d: false, l2: false, llc: true },
            Placement::DramOnly => Residency::default(),
        };
        self.engine.hierarchy_mut().place(addr, r);
    }

    /// Evict the line containing `addr` from every cache level
    /// (no timing effects — use a `clflush` sequence for the timed version).
    pub fn flush_line(&mut self, addr: Addr) {
        self.engine.hierarchy_mut().evict_everywhere(addr);
    }

    /// Warm the instruction and data TLBs for the page containing `addr`
    /// (no timing effects), as the oracle preparation in Listing 1 does.
    pub fn warm_tlb(&mut self, tid: ThreadId, addr: Addr) {
        self.engine.warm_tlb(tid, addr);
    }

    /// L1i set index of `addr` for this machine's geometry.
    pub fn l1i_set(&self, addr: Addr) -> usize {
        addr.set_index(self.engine.profile().hierarchy.l1i.sets)
    }

    /// Number of L1i sets.
    pub fn l1i_sets(&self) -> usize {
        self.engine.profile().hierarchy.l1i.sets
    }

    /// Number of L1i ways.
    pub fn l1i_ways(&self) -> usize {
        self.engine.profile().hierarchy.l1i.ways
    }

    // ---- threads -------------------------------------------------------------

    /// Thread state.
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.engine.state(tid)
    }

    /// Thread-local cycle clock.
    pub fn clock(&self, tid: ThreadId) -> u64 {
        self.engine.clock(tid)
    }

    /// Read a register.
    pub fn reg(&self, tid: ThreadId, r: Reg) -> u64 {
        self.engine.reg(tid, r)
    }

    /// Write a register.
    pub fn set_reg(&mut self, tid: ThreadId, r: Reg, v: u64) {
        self.engine.set_reg(tid, r, v);
    }

    /// Per-thread performance counters.
    pub fn counters(&self, tid: ThreadId) -> &CounterBank {
        self.engine.counters(tid)
    }

    /// Core-wide counters (both threads summed) — what a system-wide
    /// detection agent samples.
    pub fn counters_total(&self) -> CounterBank {
        self.engine.counters_total()
    }

    /// Reset all performance counters.
    pub fn reset_counters(&mut self) {
        self.engine.reset_counters();
    }

    /// Enable event tracing with a capacity bound.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.engine.tracer_mut().enable(capacity);
    }

    /// Take recorded trace events.
    pub fn take_trace(&mut self) -> Vec<Event> {
        self.engine.tracer_mut().take()
    }

    /// Start (or stop) recording the line address of every instruction
    /// fetch — architectural and speculative wrong-path alike. Enabling
    /// clears any previously recorded log.
    pub fn set_fetch_log(&mut self, on: bool) {
        self.engine.set_fetch_log(on);
    }

    /// Take the recorded fetch-line log (empty when recording is off).
    pub fn take_fetch_log(&mut self) -> Vec<u64> {
        self.engine.take_fetch_log()
    }

    /// Park a thread back to idle (stop a victim).
    pub fn park(&mut self, tid: ThreadId) {
        self.engine.park(tid);
    }

    // ---- running code --------------------------------------------------------

    /// Start a program on `tid` without driving it; it advances whenever the
    /// sibling thread performs timed work, like a real co-resident victim.
    pub fn start_program(&mut self, tid: ThreadId, entry: u64, args: &[u64]) {
        self.engine.start_program(tid, entry, args);
    }

    /// Run `tid`'s program to completion (`halt` or final `ret`),
    /// interleaving the sibling.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread, including
    /// [`StepError::StepLimit`] after `max_steps` instructions.
    pub fn run_until_halt(&mut self, tid: ThreadId, max_steps: u64) -> Result<u64, StepError> {
        let start = self.engine.clock(tid);
        let mut steps = 0u64;
        while self.engine.state(tid) == ThreadState::Running {
            if steps >= max_steps {
                return Err(StepError::StepLimit);
            }
            let burst = self.burst.min(max_steps - steps);
            steps += self.engine.run_burst(tid, burst)?;
        }
        Ok(self.engine.clock(tid) - start)
    }

    /// Run up to `max_steps` causally-ordered program steps of `tid` (and
    /// its sibling, when the sibling is behind) as one engine burst — the
    /// low-level entry for drivers that meter progress themselves. Returns
    /// the number of steps executed; see [`Engine::run_burst`].
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn run_burst(&mut self, tid: ThreadId, max_steps: u64) -> Result<u64, StepError> {
        self.engine.run_burst(tid, max_steps)
    }

    /// Call a simulated function on an idle thread: arguments in `R1..`,
    /// runs until the callee returns. Returns cycles spent.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn call(&mut self, tid: ThreadId, target: u64, args: &[u64]) -> Result<u64, StepError> {
        assert!(args.len() <= 5, "at most five register arguments");
        for (i, a) in args.iter().enumerate() {
            self.engine.set_reg(tid, Reg::from_index(1 + i), *a);
        }
        let start = self.engine.clock(tid);
        self.engine.begin_injected_call(tid, target);
        self.drive_to_idle(tid)?;
        Ok(self.engine.clock(tid) - start)
    }

    /// Execute an injected straight-line sequence on an idle thread,
    /// interleaving the sibling's program by clock order. `Call`/`CallReg`
    /// instructions in the sequence run the callee to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`]; injected sequences cannot contain jumps.
    pub fn run_sequence(
        &mut self,
        tid: ThreadId,
        instrs: &[Instr],
    ) -> Result<SeqOutcome, StepError> {
        let start = self.engine.clock(tid);
        for instr in instrs {
            self.engine.catch_up_sibling(tid)?;
            match self.engine.exec_injected(tid, instr)? {
                InjectedNext::Done => {}
                InjectedNext::EnterCall { target } => {
                    self.engine.begin_injected_call(tid, target);
                    self.drive_to_idle(tid)?;
                }
            }
        }
        self.engine.catch_up_sibling(tid)?;
        let end_clock = self.engine.clock(tid);
        Ok(SeqOutcome { cycles: end_clock - start, end_clock })
    }

    /// Execute a compiled probe sequence on an idle thread: one fused
    /// engine pass when the guards allow it ([`Engine::run_fused_probe`]),
    /// falling back to injecting the five instructions per-step via
    /// [`Machine::run_sequence`] otherwise. Same outcome either way, by
    /// construction.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] (e.g. unsupported probe classes).
    pub fn run_probe(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
    ) -> Result<SeqOutcome, StepError> {
        match self.engine.run_fused_probe(tid, probe) {
            Some(outcome) => outcome,
            None => self.run_sequence(tid, probe.instrs()),
        }
    }

    /// Call the line at `target` on an idle thread: one fused engine pass
    /// when the guards and the callee's shape allow it
    /// ([`Engine::run_fused_call`] — the callee must be an attacker-style
    /// one-line `nop*; ret` routine), falling back to injecting the `call`
    /// per-step via [`Machine::run_sequence`] otherwise. Same outcome
    /// either way, by construction, with or without a running sibling.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn run_call(&mut self, tid: ThreadId, target: u64) -> Result<SeqOutcome, StepError> {
        match self.engine.run_fused_call(tid, target) {
            Some(outcome) => outcome,
            None => self.run_sequence(tid, &[Instr::Call { target }]),
        }
    }

    /// Call every line in `targets` back to back on an idle thread: one
    /// fused engine pass for the whole batch when the guards and every
    /// callee's shape allow it ([`Engine::run_fused_calls`]), falling back
    /// to per-call [`Machine::run_call`] otherwise — an eviction set primes
    /// its eight ways in a single engine entry instead of eight. Same
    /// outcome either way, by construction.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn run_calls(&mut self, tid: ThreadId, targets: &[u64]) -> Result<SeqOutcome, StepError> {
        if let Some(outcome) = self.engine.run_fused_calls(tid, targets) {
            return outcome;
        }
        let mut cycles = 0;
        let mut end_clock = self.engine.clock(tid);
        for &target in targets {
            let out = self.run_call(tid, target)?;
            cycles += out.cycles;
            end_clock = out.end_clock;
        }
        Ok(SeqOutcome { cycles, end_clock })
    }

    /// Let `cycles` pass on `tid` (a "dummy for loop"), still interleaving
    /// the sibling.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from the sibling's program.
    pub fn advance(&mut self, tid: ThreadId, cycles: u64) -> Result<(), StepError> {
        // Fused fast path: chunks the sibling need not interleave with
        // collapse into batched engine updates ([`Engine::run_fused_advance`],
        // bit-identical to the chunked loop below).
        if let Some(done) = self.engine.run_fused_advance(tid, cycles) {
            return done;
        }
        let mut left = cycles;
        while left > 0 {
            let chunk = left.min(DELAY_CHUNK) as u32;
            self.engine.catch_up_sibling(tid)?;
            self.engine.exec_injected(tid, &Instr::Delay { cycles: chunk })?;
            left -= chunk as u64;
        }
        self.engine.catch_up_sibling(tid)
    }

    /// Drive a running thread to idle/halt in engine bursts, enforcing the
    /// default step budget.
    fn drive_to_idle(&mut self, tid: ThreadId) -> Result<(), StepError> {
        let mut steps = 0u64;
        while self.engine.state(tid) == ThreadState::Running {
            if steps >= STEP_BUDGET {
                return Err(StepError::StepLimit);
            }
            let burst = self.burst.min(STEP_BUDGET - steps);
            steps += self.engine.run_burst(tid, burst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::MemRef;
    use crate::profile::{MicroArch, ProbeKind};
    use crate::PerfEvent;

    const T0: ThreadId = ThreadId::T0;
    const T1: ThreadId = ThreadId::T1;

    fn cl() -> Machine {
        Machine::new(MicroArch::CascadeLake.profile())
    }

    /// An oracle line at `addr`: a couple of nops and a ret.
    fn oracle_program(addr: u64) -> Program {
        let mut a = Assembler::new(addr);
        a.nop().nop().ret();
        a.assemble().unwrap()
    }

    #[test]
    fn loop_program_computes_sum() {
        let mut m = cl();
        let mut a = Assembler::new(0x40_0000);
        // sum 1..=10 into R0
        a.mov_imm(Reg::R0, 0)
            .mov_imm(Reg::R2, 1)
            .label("loop")
            .add(Reg::R0, Reg::R2)
            .add_imm(Reg::R2, 1)
            .cmp_imm(Reg::R2, 11)
            .jne("loop")
            .halt();
        let p = a.assemble().unwrap();
        m.load_program(&p);
        m.start_program(T0, p.entry(), &[]);
        m.run_until_halt(T0, 10_000).unwrap();
        assert_eq!(m.reg(T0, Reg::R0), 55);
        assert_eq!(m.state(T0), ThreadState::Halted);
    }

    #[test]
    fn injected_call_runs_and_returns_to_idle() {
        let mut m = cl();
        let p = oracle_program(0x1000);
        m.load_program(&p);
        let out = m.run_sequence(T0, &[Instr::Call { target: 0x1000 }]).unwrap();
        assert!(out.cycles > 0);
        assert_eq!(m.state(T0), ThreadState::Idle);
        assert!(m.residency(Addr(0x1000)).l1i, "execute fills the L1i");
    }

    #[test]
    fn store_to_l1i_line_triggers_machine_clear() {
        let mut m = cl();
        let p = oracle_program(0x2000);
        m.load_program(&p);
        // Execute the oracle so its line is in L1i.
        m.run_sequence(T0, &[Instr::Call { target: 0x2000 }]).unwrap();
        assert!(m.residency(Addr(0x2000)).l1i);
        let before = m.counters(T0).snapshot();
        m.set_reg(T0, Reg::R1, 0x2000);
        m.run_sequence(T0, &[Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 }]).unwrap();
        let c = m.counters(T0);
        assert_eq!(c.delta(&before, PerfEvent::MachineClearsCount), 1);
        assert_eq!(c.delta(&before, PerfEvent::MachineClearsSmc), 1);
        assert!(!m.residency(Addr(0x2000)).l1i, "clear invalidates the L1i line");
    }

    #[test]
    fn probe_timing_separates_l1i_hit_from_evicted() {
        let mut m = cl();
        let p = oracle_program(0x3000);
        m.load_program(&p);
        m.set_reg(T0, Reg::R1, 0x3000);
        let probe = [
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R14 },
            Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 },
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R15 },
        ];
        // Hot: line in L1i -> SMC conflict -> slow.
        m.place_line(Addr(0x3000), Placement::L1i);
        m.warm_tlb(T0, Addr(0x3000));
        m.run_sequence(T0, &probe).unwrap();
        let hot = m.reg(T0, Reg::R15) - m.reg(T0, Reg::R14);
        // Cold: line in L2 only -> no SMC -> fast.
        m.place_line(Addr(0x3000), Placement::L2);
        m.run_sequence(T0, &probe).unwrap();
        let cold = m.reg(T0, Reg::R15) - m.reg(T0, Reg::R14);
        assert!(hot > cold + 150, "SMC hit must dominate: hot={hot} cold={cold}");
    }

    #[test]
    fn machine_clear_stalls_sibling_victim() {
        let mut m = cl();
        // Victim: tight arithmetic loop on T1.
        let mut a = Assembler::new(0x10_000);
        a.label("spin").add_imm(Reg::R0, 1).jmp("spin");
        let victim = a.assemble().unwrap();
        m.load_program(&victim);
        let oracle = oracle_program(0x20_000);
        m.load_program(&oracle);
        m.start_program(T1, 0x10_000, &[]);

        // Baseline: victim throughput while the attacker merely waits.
        let before = m.counters(T1).snapshot();
        m.advance(T0, 20_000).unwrap();
        let baseline = m.counters(T1).delta(&before, PerfEvent::InstRetired);

        // Attack: SMC machine-clear storm for a comparable cycle budget.
        m.set_reg(T0, Reg::R1, 0x20_000);
        let before = m.counters(T1).snapshot();
        let start = m.clock(T0);
        while m.clock(T0) - start < 20_000 {
            // Re-execute (fill L1i), then store (SMC clear).
            m.run_sequence(
                T0,
                &[
                    Instr::Call { target: 0x20_000 },
                    Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 },
                ],
            )
            .unwrap();
        }
        let attacked = m.counters(T1).delta(&before, PerfEvent::InstRetired);
        // The paper reports each clear stalling the sibling ~235 cycles; the
        // victim must make markedly less progress under the storm.
        assert!(
            attacked * 2 < baseline,
            "victim must slow down: baseline {baseline}, attacked {attacked}"
        );
        assert!(m.counters(T0).read(PerfEvent::MachineClearsSmc) > 10);
    }

    #[test]
    fn patched_code_executes_on_the_fast_path() {
        // The SMC coherence contract every interpreter tier honours (the
        // selfie `coherency-invalidation` idiom): make a routine
        // icache-resident, store to its line (one machine clear, L1i line
        // invalidated), rewrite its return value, and call it again through
        // both the plain and the batched call path. The last two patches
        // flip the routine into and out of the fused `nop*; ret` call shape,
        // so a stale call-shape memo would skip the final `mov_imm`.
        const ROUTINE: u64 = 0x7_0000;
        let returns = |value: u64| -> Program {
            let mut a = Assembler::new(ROUTINE);
            a.mov_imm(Reg::R0, value).ret();
            a.assemble().unwrap()
        };
        let nops = || -> Program {
            let mut a = Assembler::new(ROUTINE);
            // Seven one-byte nops cover the seven-byte `mov_imm`.
            for _ in 0..7 {
                a.nop();
            }
            a.ret();
            a.assemble().unwrap()
        };
        for (decoded, fused) in [(false, false), (false, true), (true, false), (true, true)] {
            let tier = format!("decoded={decoded} fused_probes={fused}");
            let mut m = cl();
            m.set_decoded_fast_path(decoded);
            m.set_fused_probes(fused);
            m.load_program(&returns(1));
            m.run_calls(T0, &[ROUTINE]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 1, "{tier}");
            assert!(m.residency(Addr(ROUTINE)).l1i, "{tier}: routine is L1i-resident");

            let before = m.counters(T0).snapshot();
            m.set_reg(T0, Reg::R1, ROUTINE);
            m.run_sequence(T0, &[Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 }])
                .unwrap();
            assert_eq!(m.counters(T0).delta(&before, PerfEvent::MachineClearsSmc), 1, "{tier}");
            assert!(!m.residency(Addr(ROUTINE)).l1i, "{tier}: clear invalidates the line");

            m.patch_program(&returns(2));
            m.call(T0, ROUTINE, &[]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 2, "{tier}: call sees the patch");
            m.set_reg(T0, Reg::R0, 0);
            m.run_calls(T0, &[ROUTINE]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 2, "{tier}: run_calls sees the patch");

            m.patch_program(&nops());
            m.run_calls(T0, &[ROUTINE, ROUTINE]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 2, "{tier}: nop routine leaves R0");
            m.patch_program(&returns(3));
            m.run_calls(T0, &[ROUTINE, ROUTINE]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 3, "{tier}: no stale call shape");
        }
    }

    #[test]
    fn unsupported_probe_errors() {
        let mut m = Machine::new(MicroArch::SandyBridge.profile());
        m.set_reg(T0, Reg::R1, 0x5000);
        let err =
            m.run_sequence(T0, &[Instr::Clflushopt { mem: MemRef::base(Reg::R1) }]).unwrap_err();
        assert_eq!(err, StepError::Unsupported { kind: ProbeKind::FlushOpt });
    }

    #[test]
    fn speculative_wrong_path_fills_cache_then_rolls_back() {
        let mut m = cl();
        // data layout: [0x9000] = bounds (1), [0x9100] = array base
        let bounds_addr = 0x9000u64;
        let array = 0x9100u64;
        let oracle = 0x80_000u64;
        let mut a = Assembler::new(0x50_000);
        // victim(R1 = idx):
        //   R2 = bounds; cmp idx, R2; jge done
        //   R3 = array[idx]; R3 <<= 6; R3 += oracle; call *R3
        a.mov_imm(Reg::R4, bounds_addr)
            .load(Reg::R2, MemRef::base(Reg::R4))
            .cmp(Reg::R1, Reg::R2)
            .jge("done")
            .mov_imm(Reg::R5, array)
            .add(Reg::R5, Reg::R1)
            .load_byte(Reg::R3, MemRef::base(Reg::R5))
            .shl_imm(Reg::R3, 6)
            .add_imm(Reg::R3, oracle as i64)
            .call_reg(Reg::R3)
            .label("done")
            .ret();
        let victim = a.assemble().unwrap();
        m.load_program(&victim);
        // Oracle page: 4 lines of nop/ret.
        let mut o = Assembler::new(oracle);
        for i in 0..4 {
            o.org(oracle + i * 64).nop().ret();
        }
        m.load_program(&o.assemble().unwrap());
        m.write_u64(Addr(bounds_addr), 1);
        m.write_u8(Addr(array), 0); // in-bounds value -> slot 0
        m.write_u8(Addr(array + 2), 3); // "secret" at OOB index 2 -> slot 3

        // Train: in-bounds calls teach the branch predictor "not taken".
        for _ in 0..8 {
            m.call(T0, 0x50_000, &[0]).unwrap();
        }
        // Flush the bounds so the branch resolves late, flush the oracle.
        for i in 0..4 {
            m.flush_line(Addr(oracle + i * 64));
        }
        m.flush_line(Addr(bounds_addr));
        let r0_before = m.reg(T0, Reg::R0);
        // Out-of-bounds call: architecturally takes the `done` path...
        m.call(T0, 0x50_000, &[2]).unwrap();
        assert_eq!(m.reg(T0, Reg::R0), r0_before, "architectural state is clean");
        // ...but the wrong path fetched oracle slot 3 into the caches.
        assert!(
            m.residency(Addr(oracle + 3 * 64)).l1i,
            "speculative fetch must survive the squash"
        );
        assert!(!m.residency(Addr(oracle + 64)).l1i);
    }
}
